#include "network_layers.hpp"

#include <algorithm>
#include <type_traits>
#include <variant>

#include "mapping/fps.hpp"
#include "mapping/kernel_map.hpp"
#include "mapping/knn.hpp"
#include "mapping/quantize.hpp"
#include "nn/executor.hpp"
#include "sim/accelerator.hpp"

namespace perfbench {

using namespace pointacc;

namespace {

/** One mapping operation as nn/executor reports it. */
struct OpRecord
{
    MappingOpKind kind;
    std::uint64_t in;
    std::uint64_t out;

    bool
    operator==(const OpRecord &o) const
    {
        return kind == o.kind && in == o.in && out == o.out;
    }
};

const char *
spanName(MappingOpKind kind)
{
    switch (kind) {
      case MappingOpKind::Quantize: return "mapping.quantize";
      case MappingOpKind::KernelMap: return "mapping.kernelmap";
      case MappingOpKind::Fps: return "mapping.fps";
      case MappingOpKind::BallQuery: return "mapping.ballquery";
      case MappingOpKind::Knn: return "mapping.knn";
    }
    return "mapping.unknown";
}

/**
 * Walks a network's layers tracking the current cloud and the encoder
 * level stack exactly as nn/executor does, but calls only the mapping
 * kernels — each inside a span named after its kind. With `checks`
 * set, every kernel map is also built by hashKernelMap and compared.
 */
class MappingReplay
{
  public:
    MappingReplay(Tracer &tracer, std::uint64_t op, Checks *checks)
        : tracer(tracer), op(op), checks(checks)
    {
    }

    std::vector<OpRecord>
    run(const Network &net, const PointCloud &input)
    {
        cloud = input;
        levels.clear();
        ops.clear();
        for (const LayerDesc &layer : net.layers)
            std::visit([&](const auto &d) { step(net, d); }, layer.desc);
        return ops;
    }

  private:
    template <typename F>
    auto
    call(MappingOpKind kind, std::uint64_t in, std::uint64_t out, F fn)
    {
        ops.push_back({kind, in, out});
        ScopedSpan span(tracer, spanName(kind), op);
        return fn();
    }

    void
    kernelMap(const Network &net, const PointCloud &in,
              const PointCloud &out, const KernelMapConfig &kcfg)
    {
        const MapSet sorted = call(MappingOpKind::KernelMap, in.size(),
                                   out.size(), [&] {
                                       return sortKernelMap(in, out, kcfg);
                                   });
        if (checks == nullptr)
            return;
        MapSet a = sorted;
        MapSet b = hashKernelMap(in, out, kcfg);
        a.sortGroups();
        b.sortGroups();
        checks->expect(a.flattened() == b.flattened(),
                       "sortKernelMap != hashKernelMap on " +
                           net.notation);
    }

    void
    step(const Network &net, const SparseConvDesc &d)
    {
        KernelMapConfig kcfg;
        kcfg.kernelSize = d.kernelSize;
        if (d.transposed) {
            PointCloud output = std::move(levels.back());
            levels.pop_back();
            kcfg.inStride = output.tensorStride();
            kcfg.outStride = cloud.tensorStride();
            kernelMap(net, output, cloud, kcfg);
            cloud = std::move(output);
        } else if (d.strideMultiplier > 1) {
            const std::int32_t outStride =
                cloud.tensorStride() * d.strideMultiplier;
            PointCloud output =
                call(MappingOpKind::Quantize, cloud.size(), 0, [&] {
                    return quantizeDownsample(cloud, outStride);
                });
            ops.back().out = output.size();
            kcfg.inStride = cloud.tensorStride();
            kcfg.outStride = outStride;
            kernelMap(net, cloud, output, kcfg);
            levels.push_back(std::move(cloud));
            cloud = std::move(output);
        } else {
            kcfg.inStride = cloud.tensorStride();
            kcfg.outStride = cloud.tensorStride();
            kernelMap(net, cloud, cloud, kcfg);
        }
    }

    void
    step(const Network &, const SetAbstractionDesc &d)
    {
        if (d.numCenters == 0) {
            levels.push_back(cloud);
            cloud = PointCloud({Coord3{0, 0, 0}});
            return;
        }
        const std::size_t centers = std::min<std::size_t>(
            d.numCenters, std::max<std::size_t>(1, cloud.size() / 2));
        const PointCloud query =
            call(MappingOpKind::Fps, cloud.size(), centers, [&] {
                return gatherPoints(cloud,
                                    farthestPointSampling(cloud, centers));
            });
        for (const SaScale &scale : d.scales) {
            if (scale.radiusGrid > 0) {
                const std::int64_t r2 =
                    static_cast<std::int64_t>(scale.radiusGrid) *
                    scale.radiusGrid;
                call(MappingOpKind::BallQuery, cloud.size(), query.size(),
                     [&] { return ballQuery(cloud, query, scale.k, r2); });
            } else {
                call(MappingOpKind::Knn, cloud.size(), query.size(), [&] {
                    return kNearestNeighbors(cloud, query, scale.k);
                });
            }
        }
        levels.push_back(std::move(cloud));
        cloud = query;
    }

    void
    step(const Network &, const FeaturePropagationDesc &)
    {
        PointCloud fine = std::move(levels.back());
        levels.pop_back();
        call(MappingOpKind::Knn, cloud.size(), fine.size(),
             [&] { return kNearestNeighbors(cloud, fine, 3); });
        cloud = std::move(fine);
    }

    void
    step(const Network &, const EdgeConvDesc &d)
    {
        call(MappingOpKind::Knn, cloud.size(), cloud.size(),
             [&] { return kNearestNeighbors(cloud, cloud, d.k); });
    }

    void
    step(const Network &, const GlobalPoolDesc &d)
    {
        if (!d.broadcast)
            cloud = PointCloud({Coord3{0, 0, 0}});
    }

    void step(const Network &, const DenseDesc &) {}
    void step(const Network &, const ConcatDesc &) {}
    void step(const Network &, const ResetDesc &) {}

    Tracer &tracer;
    std::uint64_t op;
    Checks *checks;
    PointCloud cloud;
    std::vector<PointCloud> levels;
    std::vector<OpRecord> ops;
};

std::vector<OpRecord>
executorOps(const NetCase &c)
{
    std::vector<OpRecord> ops;
    executeNetwork(c.net, c.cloud, [&](const LayerWork &w) {
        for (const MappingOpInfo &m : w.mappingOps)
            ops.push_back({m.kind, m.inputPoints, m.outputPoints});
    });
    return ops;
}

} // namespace

void
checkKernelMaps(const std::vector<NetCase> &cases, Checks &checks)
{
    Tracer off(false);
    for (const NetCase &c : cases)
        if (c.net.convClass == ConvClass::SparseConv)
            MappingReplay(off, 0, &checks).run(c.net, c.cloud);
}

void
measureNetworkLayers(const std::vector<NetCase> &cases, std::size_t reps,
                     Tracer &tracer, std::vector<Metric> &layers,
                     Checks &checks)
{
    Tracer off(false);
    WorkloadSummary work;
    for (const NetCase &c : cases) {
        checks.expect(MappingReplay(off, 0, nullptr).run(c.net, c.cloud) ==
                          executorOps(c),
                      "mapping replay diverges from nn/executor on " +
                          c.net.notation);
        const WorkloadSummary w = summarizeWorkload(c.net, c.cloud);
        work.fpsWork += w.fpsWork;
        work.neighborWork += w.neighborWork;
        work.kernelMapWork += w.kernelMapWork;
    }

    const Accelerator accel(pointAccConfig());
    std::vector<double> executeMs, runMs;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (const NetCase &c : cases)
            MappingReplay(tracer, rep, nullptr).run(c.net, c.cloud);
        const double execBefore = tracer.totalMs("nn.execute");
        for (const NetCase &c : cases) {
            ScopedSpan span(tracer, "nn.execute", rep);
            executeNetwork(c.net, c.cloud, [](const LayerWork &) {});
        }
        executeMs.push_back(tracer.totalMs("nn.execute") - execBefore);
        const double runBefore = tracer.totalMs("sim.run");
        for (const NetCase &c : cases) {
            ScopedSpan span(tracer, "sim.run", rep);
            accel.run(c.net, c.cloud);
        }
        runMs.push_back(tracer.totalMs("sim.run") - runBefore);
    }

    const double r = static_cast<double>(reps);
    for (const char *name :
         {"mapping.fps", "mapping.ballquery", "mapping.knn",
          "mapping.kernelmap", "mapping.quantize"})
        layers.push_back({std::string(name) + "_ms",
                          tracer.totalMs(name) / r, "ms"});
    layers.push_back({"mapping.fps_work",
                      static_cast<double>(work.fpsWork), "count"});
    layers.push_back({"mapping.neighbor_work",
                      static_cast<double>(work.neighborWork), "count"});
    layers.push_back({"mapping.kernelmap_work",
                      static_cast<double>(work.kernelMapWork), "count"});
    const double execute = median(executeMs);
    const double run = median(runMs);
    layers.push_back({"nn.execute_ms", execute, "ms"});
    layers.push_back({"sim.run_ms", run, "ms"});
    layers.push_back({"sim.self_ms", run - execute, "ms"});
}

} // namespace perfbench
