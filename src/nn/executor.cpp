#include "nn/executor.hpp"

#include <algorithm>
#include <map>

#include "core/logging.hpp"
#include "mapping/fps.hpp"
#include "mapping/kernel_map.hpp"
#include "mapping/knn.hpp"
#include "mapping/quantize.hpp"

namespace pointacc {

namespace {

/** What built a MapSet kept on a level. */
enum class MapRole
{
    Submanifold, ///< kernel map of the level onto itself, by kernel size
    FromFiner,   ///< strided conv's map from the level below, by kernel
    SelfKnn,     ///< kNN of the level on itself, by k
};

/**
 * One resolution of the walk: a cloud plus the maps built on it. The
 * two move and stack together, so a map is found again exactly when
 * its level comes back, and is freed when its level is dropped.
 */
struct Level
{
    explicit Level(PointCloud c = {}) : cloud(std::move(c)) {}

    PointCloud cloud;
    std::map<std::pair<MapRole, int>, MapSet> maps;
};

/** The maps under (role, param) on `level`, built by `build` once. */
template <typename Build>
const MapSet &
keptMaps(Level &level, MapRole role, int param, Build build)
{
    const auto key = std::make_pair(role, param);
    auto it = level.maps.find(key);
    if (it == level.maps.end())
        it = level.maps.emplace(key, build()).first;
    return it->second;
}

/** Execution state threaded through the layer walk. */
struct ExecState
{
    Level level;               ///< current resolution
    std::uint32_t channels;    ///< current feature width
    std::int32_t chainId = 0;  ///< next dense-chain id
    bool inDenseChain = false;
    /** Encoder levels for U-Net upsampling / FP skip levels. While a
     *  level is current, the stack beneath it is the one it was
     *  created over: pushes and pops only happen as the current level
     *  changes. */
    std::vector<Level> levelStack;

    const LayerVisitor *visit = nullptr;
};

void
emit(ExecState &st, LayerWork &&work)
{
    if (work.isDense) {
        if (!st.inDenseChain) {
            ++st.chainId;
            st.inDenseChain = true;
        }
        work.denseChainId = st.chainId;
    } else {
        st.inDenseChain = false;
    }
    (*st.visit)(work);
}

/** Emit one per-point (or per-edge) dense layer. */
void
emitDense(ExecState &st, const std::string &name, std::uint64_t rows,
          std::uint32_t cin, std::uint32_t cout)
{
    LayerWork w;
    w.name = name;
    w.isDense = true;
    w.numIn = rows;
    w.numOut = rows;
    w.cin = cin;
    w.cout = cout;
    w.macs = rows * static_cast<std::uint64_t>(cin) * cout;
    emit(st, std::move(w));
}

void
runDense(ExecState &st, const LayerDesc &layer, const DenseDesc &d)
{
    simAssert(d.inChannels == st.channels,
              ("channel mismatch at " + layer.name).c_str());
    emitDense(st, layer.name, st.level.cloud.size(), d.inChannels,
              d.outChannels);
    st.channels = d.outChannels;
}

void
runSparseConv(ExecState &st, const LayerDesc &layer,
              const SparseConvDesc &d)
{
    simAssert(d.inChannels == st.channels + d.skipChannels,
              ("channel mismatch at " + layer.name).c_str());

    const PointCloud &cloud = st.level.cloud;
    const bool down = !d.transposed && d.strideMultiplier > 1;
    const bool moves = d.transposed || down;
    Level next; // the level this layer moves to, if it moves
    MapSet transposed;
    const MapSet *maps = nullptr;
    std::vector<MappingOpInfo> mappingOps;
    KernelMapConfig kcfg;
    kcfg.kernelSize = d.kernelSize;

    if (d.transposed) {
        // Upsample back to the finest stashed encoder level: the maps
        // are the transpose of the corresponding downsample's maps,
        // which the downsample kept on the current level.
        simAssert(!st.levelStack.empty(),
                  "transposed conv without a matching downsample");
        next = std::move(st.levelStack.back());
        st.levelStack.pop_back();

        kcfg.inStride = next.cloud.tensorStride();
        kcfg.outStride = cloud.tensorStride();
        const MapSet &down =
            keptMaps(st.level, MapRole::FromFiner, d.kernelSize, [&] {
                return sortKernelMap(next.cloud, cloud, kcfg);
            });
        transposed = transposeMaps(down, d.kernelSize);
        maps = &transposed;
        mappingOps.push_back({MappingOpKind::KernelMap, next.cloud.size(),
                              cloud.size(), 0,
                              static_cast<int>(maps->numWeights())});
    } else if (down) {
        // Strided downsample: quantize then kernel-map.
        const std::int32_t outStride =
            cloud.tensorStride() * d.strideMultiplier;
        next.cloud = quantizeDownsample(cloud, outStride);
        mappingOps.push_back({MappingOpKind::Quantize, cloud.size(),
                              next.cloud.size(), 0, 0});

        kcfg.inStride = cloud.tensorStride();
        kcfg.outStride = outStride;
        maps = &keptMaps(next, MapRole::FromFiner, d.kernelSize, [&] {
            return sortKernelMap(cloud, next.cloud, kcfg);
        });
        mappingOps.push_back({MappingOpKind::KernelMap, cloud.size(),
                              next.cloud.size(), 0,
                              static_cast<int>(maps->numWeights())});
    } else {
        // Submanifold convolution at the same resolution.
        kcfg.inStride = cloud.tensorStride();
        kcfg.outStride = cloud.tensorStride();
        maps = &keptMaps(st.level, MapRole::Submanifold, d.kernelSize, [&] {
            return sortKernelMap(cloud, cloud, kcfg);
        });
        mappingOps.push_back({MappingOpKind::KernelMap, cloud.size(),
                              cloud.size(), 0,
                              static_cast<int>(maps->numWeights())});
    }

    LayerWork w;
    w.name = layer.name;
    w.isDense = false;
    w.numIn = cloud.size();
    w.numOut = moves ? next.cloud.size() : cloud.size();
    w.cin = d.inChannels;
    w.cout = d.outChannels;
    w.maps = maps;
    w.mappingOps = std::move(mappingOps);
    w.macs = maps->size() * static_cast<std::uint64_t>(d.inChannels) *
             d.outChannels;
    emit(st, std::move(w));

    // Stash the fine level for the mirroring transposed conv.
    if (down)
        st.levelStack.push_back(std::move(st.level));
    if (moves)
        st.level = std::move(next);
    st.channels = d.outChannels;
}

void
runSetAbstraction(ExecState &st, const LayerDesc &layer,
                  const SetAbstractionDesc &d)
{
    simAssert(d.inChannels == st.channels,
              ("channel mismatch at " + layer.name).c_str());

    const PointCloud &cloud = st.level.cloud;
    if (d.numCenters == 0) {
        // Group-all: one global region, MLP over every point, max-pool.
        std::uint32_t cur = d.inChannels + 3;
        for (std::size_t i = 0; i < d.scales[0].mlp.size(); ++i) {
            emitDense(st, layer.name + ".mlp" + std::to_string(i),
                      cloud.size(), cur, d.scales[0].mlp[i]);
            cur = d.scales[0].mlp[i];
        }
        st.levelStack.push_back(std::move(st.level)); // FP climbs back
        st.level = Level(PointCloud({Coord3{0, 0, 0}}));
        st.channels = cur;
        return;
    }

    // Output construction: farthest point sampling.
    const std::size_t centers =
        std::min<std::size_t>(d.numCenters, std::max<std::size_t>(
                                                1, cloud.size() / 2));
    const auto selected = farthestPointSampling(cloud, centers);
    PointCloud queryCloud = gatherPoints(cloud, selected);

    std::uint32_t outChannels = 0;
    for (std::size_t s = 0; s < d.scales.size(); ++s) {
        const auto &scale = d.scales[s];
        // Neighbor search: ball query (or kNN when radius is 0).
        std::vector<NeighborList> lists;
        MappingOpKind searchKind;
        if (scale.radiusGrid > 0) {
            lists = ballQuery(cloud, queryCloud, scale.k,
                              static_cast<std::int64_t>(scale.radiusGrid) *
                                  scale.radiusGrid);
            searchKind = MappingOpKind::BallQuery;
        } else {
            lists = kNearestNeighbors(cloud, queryCloud, scale.k);
            searchKind = MappingOpKind::Knn;
        }
        MapSet maps = neighborsToMaps(lists, scale.k);
        std::uint64_t survivors = 0;
        for (const auto &list : lists)
            survivors += list.candidates;

        // First MLP layer runs per gathered neighbor, driven by maps.
        LayerWork w;
        w.name = layer.name + ".s" + std::to_string(s) + ".mlp0";
        w.isDense = false;
        w.numIn = cloud.size();
        w.numOut = queryCloud.size();
        w.cin = d.inChannels + 3; // grouped features + relative coords
        w.cout = scale.mlp[0];
        w.maps = &maps;
        w.macs = maps.size() * static_cast<std::uint64_t>(w.cin) * w.cout;
        if (s == 0) {
            w.mappingOps.push_back({MappingOpKind::Fps, cloud.size(),
                                    queryCloud.size(), 0, 0});
        }
        w.mappingOps.push_back({searchKind, cloud.size(),
                                queryCloud.size(), scale.k, 0,
                                survivors});
        const std::uint64_t edges = maps.size();
        emit(st, std::move(w));

        // Remaining MLP layers act per edge; max-pool follows (free).
        std::uint32_t cur = scale.mlp[0];
        for (std::size_t i = 1; i < scale.mlp.size(); ++i) {
            emitDense(st,
                      layer.name + ".s" + std::to_string(s) + ".mlp" +
                          std::to_string(i),
                      edges, cur, scale.mlp[i]);
            cur = scale.mlp[i];
        }
        outChannels += cur; // MSG concatenates scale outputs
    }

    st.levelStack.push_back(std::move(st.level)); // FP layers climb back up
    st.level = Level(std::move(queryCloud));
    st.channels = outChannels;
}

void
runFeaturePropagation(ExecState &st, const LayerDesc &layer,
                      const FeaturePropagationDesc &d)
{
    simAssert(!st.levelStack.empty(),
              "feature propagation without a matching abstraction");
    Level fine = std::move(st.levelStack.back());
    st.levelStack.pop_back();
    const PointCloud &cloud = st.level.cloud;

    // 3-NN interpolation: each fine point finds 3 coarse neighbors.
    LayerWork w;
    w.name = layer.name + ".mlp0";
    w.isDense = false;
    w.numIn = cloud.size();
    w.numOut = fine.cloud.size();
    w.cin = d.inChannels;
    w.cout = d.mlp[0];
    const auto lists = kNearestNeighbors(cloud, fine.cloud, 3);
    MapSet maps = neighborsToMaps(lists, 3);
    w.maps = &maps;
    w.mappingOps.push_back(
        {MappingOpKind::Knn, cloud.size(), fine.cloud.size(), 3, 0});
    // Interpolated features are per fine point; the unit MLP runs per
    // fine point.
    w.macs = fine.cloud.size() * static_cast<std::uint64_t>(d.inChannels) *
             d.mlp[0];
    emit(st, std::move(w));

    std::uint32_t cur = d.mlp[0];
    for (std::size_t i = 1; i < d.mlp.size(); ++i) {
        emitDense(st, layer.name + ".mlp" + std::to_string(i),
                  fine.cloud.size(), cur, d.mlp[i]);
        cur = d.mlp[i];
    }
    st.level = std::move(fine);
    st.channels = cur;
}

void
runEdgeConv(ExecState &st, const LayerDesc &layer, const EdgeConvDesc &d)
{
    simAssert(d.inChannels == st.channels,
              ("channel mismatch at " + layer.name).c_str());

    // Feature-space kNN; geometry stands in for the feature metric
    // (identical cost structure — Section 2, graph-based special case).
    const PointCloud &cloud = st.level.cloud;
    const MapSet &maps =
        keptMaps(st.level, MapRole::SelfKnn, d.k, [&] {
            return neighborsToMaps(kNearestNeighbors(cloud, cloud, d.k),
                                   d.k);
        });

    LayerWork w;
    w.name = layer.name + ".mlp0";
    w.isDense = false;
    w.numIn = cloud.size();
    w.numOut = cloud.size();
    w.cin = 2 * d.inChannels; // edge features (f_i, f_j - f_i)
    w.cout = d.mlp[0];
    w.maps = &maps;
    MappingOpInfo knnOp{MappingOpKind::Knn, cloud.size(),
                        cloud.size(), d.k, 0, 0,
                        std::max<std::uint32_t>(3, d.inChannels)};
    w.mappingOps.push_back(knnOp);
    const std::uint64_t edges = maps.size();
    w.macs = edges * static_cast<std::uint64_t>(w.cin) * w.cout;
    emit(st, std::move(w));

    std::uint32_t cur = d.mlp[0];
    for (std::size_t i = 1; i < d.mlp.size(); ++i) {
        emitDense(st, layer.name + ".mlp" + std::to_string(i), edges, cur,
                  d.mlp[i]);
        cur = d.mlp[i];
    }
    st.channels = cur;
}

void
runConcat(ExecState &st, const ConcatDesc &d)
{
    // Concatenation only widens the live feature map; breaks a dense
    // chain because the concatenated source must be re-materialized.
    st.inDenseChain = false;
    st.channels += d.extraChannels;
}

void
runReset(ExecState &st, const ResetDesc &d)
{
    st.inDenseChain = false;
    st.channels = d.channels;
}

void
runGlobalPool(ExecState &st, const LayerDesc &layer, const GlobalPoolDesc &d)
{
    simAssert(d.channels == st.channels,
              ("channel mismatch at " + layer.name).c_str());
    // Max-pool; no MACs, breaks any dense chain. Broadcast mode keeps
    // the cloud (the pooled vector is repeated per point and typically
    // concatenated by a following Concat layer).
    st.inDenseChain = false;
    if (!d.broadcast)
        st.level = Level(PointCloud({Coord3{0, 0, 0}}));
}

} // namespace

void
executeNetwork(const Network &net, const PointCloud &input,
               const LayerVisitor &visit)
{
    simAssert(input.isSorted(), "executor requires a sorted input cloud");

    ExecState st;
    st.level = Level(input);
    st.channels = net.inputChannels;
    st.visit = &visit;

    for (const auto &layer : net.layers) {
        std::visit(
            [&](const auto &desc) {
                using T = std::decay_t<decltype(desc)>;
                if constexpr (std::is_same_v<T, DenseDesc>)
                    runDense(st, layer, desc);
                else if constexpr (std::is_same_v<T, SparseConvDesc>)
                    runSparseConv(st, layer, desc);
                else if constexpr (std::is_same_v<T, SetAbstractionDesc>)
                    runSetAbstraction(st, layer, desc);
                else if constexpr (std::is_same_v<T,
                                                  FeaturePropagationDesc>)
                    runFeaturePropagation(st, layer, desc);
                else if constexpr (std::is_same_v<T, EdgeConvDesc>)
                    runEdgeConv(st, layer, desc);
                else if constexpr (std::is_same_v<T, ConcatDesc>)
                    runConcat(st, desc);
                else if constexpr (std::is_same_v<T, ResetDesc>)
                    runReset(st, desc);
                else
                    runGlobalPool(st, layer, desc);
            },
            layer.desc);
    }
}

WorkloadSummary
summarizeWorkload(const Network &net, const PointCloud &input)
{
    WorkloadSummary s;
    s.inputPoints = input.size();

    executeNetwork(net, input, [&](const LayerWork &w) {
        ++s.numMatrixOps;
        s.totalMacs += w.macs;
        if (w.isDense)
            s.denseMacs += w.macs;
        else
            s.sparseMacs += w.macs;
        s.weightBytes += static_cast<std::uint64_t>(w.cin) * w.cout * 2 *
                         (w.maps ? w.maps->numWeights() : 1);

        const std::uint64_t rows = w.maps ? w.maps->size() : w.numIn;
        s.totalMaps += w.maps ? w.maps->size() : 0;
        // GPU gather-matmul-scatter traffic: features cross DRAM on
        // gather read + gathered write + matmul read, psums written and
        // scattered (fp16).
        if (w.maps) {
            s.gatherScatterBytes +=
                rows * 2ULL * (3ULL * w.cin + 2ULL * w.cout);
        } else {
            s.gatherScatterBytes += rows * 2ULL * (w.cin + w.cout);
        }

        s.numMappingOps += w.mappingOps.size();
        for (const auto &op : w.mappingOps) {
            switch (op.kind) {
              case MappingOpKind::Fps:
                s.fpsWork += op.inputPoints * op.outputPoints;
                break;
              case MappingOpKind::BallQuery:
              case MappingOpKind::Knn:
                // Feature-space search costs dims/3 geometric evals.
                s.neighborWork += op.inputPoints * op.outputPoints *
                                  std::max<std::uint32_t>(
                                      op.distanceDims, 3) / 3;
                break;
              case MappingOpKind::KernelMap:
                s.kernelMapWork += (op.inputPoints + op.outputPoints) *
                                   static_cast<std::uint64_t>(
                                       std::max(op.kernelVolume, 1));
                break;
              case MappingOpKind::Quantize:
                s.kernelMapWork += op.inputPoints;
                break;
            }
        }

        const std::uint64_t inBytes = w.numIn * 2 * w.cin;
        const std::uint64_t outBytes = w.numOut * 2 * w.cout;
        s.peakFeatureBytes =
            std::max(s.peakFeatureBytes, std::max(inBytes, outBytes));
    });
    return s;
}

NetworkCharacteristics
characterize(const Network &net, const PointCloud &input)
{
    const auto s = summarizeWorkload(net, input);
    NetworkCharacteristics c;
    c.macsPerPoint = input.empty() ? 0 : s.totalMacs / input.size();
    c.featureBytesPerPoint =
        input.empty() ? 0.0
                      : static_cast<double>(s.peakFeatureBytes) /
                            static_cast<double>(input.size());
    c.params = s.weightBytes / 2;
    return c;
}

} // namespace pointacc
