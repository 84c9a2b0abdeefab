/**
 * @file
 * Workloads `serve-overload` and `serve-steady`: 10^6 open-loop
 * requests through FleetScheduler::run on a fleet of 16, priced by a
 * fixed phase table (no accelerator profiling), run serially.
 *
 *  - serve-overload is bench_simperf's anchor row: FIFO, maxBatchSize
 *    8, 2.5x offered load, queue depth 256 x 16. The queue stays
 *    pinned at 4096 deep, so admission and batch formation dominate.
 *  - serve-steady runs at 0.7x capacity with bursty arrivals (mean
 *    burst 4), repeated stream frames, deadlines under EDF, the
 *    kernel-map cache, wait-for-K batching and a run-ahead depth of 2:
 *    the ordered-tree queue path, a shallow queue, timers, cache hits
 *    and staging.
 */

#include <cstring>
#include <memory>
#include <sstream>

#include "harness.hpp"
#include "runtime/batcher.hpp"
#include "runtime/map_cache.hpp"
#include "runtime/queue.hpp"
#include "runtime/reference.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serving_stats.hpp"
#include "runtime/workload.hpp"
#include "sim/accel_config.hpp"

namespace perfbench {

using namespace pointacc;

namespace {

constexpr std::size_t kFleet = 16;
constexpr std::uint64_t kRequests = 1'000'000;
/** Prefix that the cross-checks (reference engine, vector path) and
 *  the canonical digest run on. */
constexpr std::uint64_t kCheckRequests = 100'000;
const std::vector<double> kBucketScales = {1.0, 2.0};

/** bench_simperf's fixed phase table: map-bound, backend-bound and
 *  mixed shapes for three networks x two size buckets. */
class TableServiceModel : public ServiceModel
{
  public:
    ServiceProfile
    profile(const AcceleratorConfig &, std::uint32_t network_id,
            std::uint32_t bucket) const override
    {
        static constexpr struct
        {
            std::uint64_t map, backend, weight;
        } kTable[3][2] = {
            {{4'000, 16'000, 3'000}, {9'000, 36'000, 6'000}},
            {{12'000, 20'000, 5'000}, {26'000, 44'000, 10'000}},
            {{40'000, 60'000, 9'000}, {90'000, 130'000, 18'000}},
        };
        const auto &row = kTable[network_id % 3][bucket % 2];
        ServiceProfile p;
        p.mappingCycles = row.map;
        p.computeCycles = row.backend;
        p.totalCycles = row.map + row.backend;
        p.weightLoadCycles = row.weight;
        p.mapBytes = 8 * row.map;
        return p;
    }
};

/** Mean cycles per request of the mix below (weights 4:2:1). */
constexpr double kMeanCycles =
    (4.0 * 20'000 + 2.0 * 70'000 + 1.0 * 220'000) / 7.0;

struct Shape
{
    SchedulerConfig config;
    WorkloadSpec spec;
    /** Depth the queue/batcher replay holds the queue at. */
    std::size_t replayDepth = 0;
};

Shape
makeShape(bool overload, std::uint64_t seed, std::uint64_t requests)
{
    Shape s;
    SchedulerConfig &c = s.config;
    c.occupancy = OccupancyModel::Pipelined;
    c.batcher.enabled = true;
    c.batcher.maxBatchSize = 8;
    c.queueDepth = 256 * kFleet;

    WorkloadSpec &w = s.spec;
    const double capacity = 1e6 / kMeanCycles * kFleet;
    if (overload) {
        c.policy = QueuePolicy::Fifo;
        w.seed = 20260730 + seed; // seed 0 = bench_simperf's anchor
        w.mix = {{0, 0, 4.0, 0}, {1, 1, 2.0, 0}, {2, 1, 1.0, 0}};
        w.requestsPerMCycle = 2.5 * capacity;
        w.arrivals = ArrivalProcess::Poisson;
        s.replayDepth = c.queueDepth;
    } else {
        c.policy = QueuePolicy::Edf;
        c.batcher.targetK = 4;
        c.batcher.maxWaitCycles = 20'000;
        c.mapCache.enabled = true;
        c.mapCache.capacityEntries = 4096;
        c.mapCache.hitReadCycles = 2'000;
        c.runAheadDepth = 2;
        w.seed = 20261017 + seed;
        // Deadlines at 10x each class's service time; every class is
        // its own frame stream repeating half its frames.
        w.mix = {{0, 0, 4.0, 200'000, 0, 0.5},
                 {1, 1, 2.0, 700'000, 1, 0.5},
                 {2, 1, 1.0, 2'200'000, 2, 0.5}};
        w.requestsPerMCycle = 0.7 * capacity;
        w.arrivals = ArrivalProcess::Bursty;
        w.meanBurstSize = 4;
        s.replayDepth = kFleet * c.batcher.targetK;
    }
    w.horizonCycles = static_cast<std::uint64_t>(
        static_cast<double>(requests) * 1e6 / w.requestsPerMCycle);
    return s;
}

std::string
servingBytes(const ServingReport &r)
{
    std::ostringstream os;
    writeServingJson(os, r);
    return os.str();
}

/** Serving JSON plus every completion timestamp. */
std::string
digestOf(const ServingReport &r)
{
    Digest d;
    d.add(servingBytes(r));
    std::string raw(r.completionCycles.size() * sizeof(std::uint64_t), '\0');
    if (!raw.empty())
        std::memcpy(&raw[0], r.completionCycles.data(), raw.size());
    d.add(raw);
    return d.hex();
}

bool
conserved(const ServingReport &r)
{
    return r.generated == r.admitted + r.dropped &&
           r.admitted == r.completed + r.failed + r.leftoverQueued;
}

/** The fleet, its scheduler and the materialized check trace. */
struct Setup
{
    std::vector<AcceleratorConfig> fleet;
    std::unique_ptr<FleetScheduler> sched;
    std::vector<Request> checkTrace;
};

/**
 * Replay AdmissionQueue::push and Batcher::form over the workload's
 * arrivals with the queue held near its depth, inside "queue.push" and
 * "batcher.form" spans. Returns the number of batches formed.
 */
std::uint64_t
replayQueue(const Shape &shape, const std::vector<Request> &arrivals,
            Tracer &tracer)
{
    const std::size_t depth = shape.replayDepth;
    const std::size_t block = std::max<std::size_t>(1, depth / 8);
    const SchedulerConfig &c = shape.config;
    AdmissionQueue queue(depth);
    const Batcher batcher(c.batcher, kBucketScales);

    std::size_t next = 0;
    std::uint64_t forms = 0;
    const auto pushBlock = [&](std::size_t n) {
        ScopedSpan span(tracer, "queue.push", 0);
        for (std::size_t i = 0; i < n && next < arrivals.size(); ++i)
            queue.push(arrivals[next++]);
    };
    const auto formUntil = [&](std::size_t freed_target) {
        ScopedSpan span(tracer, "batcher.form", 0);
        std::size_t freed = 0;
        while (freed < freed_target && !queue.empty()) {
            freed += batcher.form(queue, c.policy).size();
            ++forms;
        }
    };
    pushBlock(depth);
    while (next < arrivals.size()) {
        formUntil(block);
        pushBlock(block);
    }
    formUntil(depth);
    return forms;
}

} // namespace

Outcome
runServe(const Options &opt, bool overload)
{
    Outcome out;
    Tracer tracer(opt.trace);
    const TableServiceModel model;
    const Shape shape = makeShape(overload, opt.seed, kRequests);
    const Shape check = makeShape(overload, opt.seed, kCheckRequests);

    Setup setup;
    const double setupS = medianCpuSeconds(kSetupReps, [&] {
        Setup s;
        s.fleet.assign(kFleet, pointAccConfig());
        s.sched = std::make_unique<FleetScheduler>(s.fleet, model,
                                                   kBucketScales,
                                                   shape.config);
        s.checkTrace = WorkloadGenerator(check.spec).generate();
        setup = std::move(s);
    });
    const FleetScheduler &sched = *setup.sched;

    // Cross-checks on the 10^5-request prefix: the vector and stream
    // entry points agree, and (FIFO anchor only) so does the frozen
    // reference engine, byte for byte.
    const ServingReport vec = sched.run(setup.checkTrace);
    WorkloadStream checkStream(check.spec);
    const ServingReport streamed = sched.run(checkStream);
    out.checks.expect(conserved(vec), "conservation on the check prefix");
    out.checks.expect(servingBytes(vec) == servingBytes(streamed),
                      "vector and stream runs differ");
    if (overload) {
        const ServingReport ref =
            runServingReference(setup.fleet, model, kBucketScales,
                                shape.config, setup.checkTrace);
        out.checks.expect(servingBytes(ref) == servingBytes(vec),
                          "reference engine differs on the prefix");
    }
    if (opt.seed == kCanonicalSeed) {
        out.canonicalDigest = digestOf(vec);
    } else {
        WorkloadStream canon(
            makeShape(overload, kCanonicalSeed, kCheckRequests).spec);
        out.canonicalDigest = digestOf(sched.run(canon));
    }

    // Timed region: whole 10^6-request runs, stream generation
    // included; each run is checked for conservation and repeatability
    // outside the timed part.
    ServingReport first;
    std::string firstDigest;
    const auto serveOnce = [&](Tracer &t, std::uint64_t op) {
        ServingReport r;
        const double t0 = threadCpuSeconds();
        {
            ScopedSpan span(t, "scheduler.run", op);
            WorkloadStream stream(shape.spec);
            r = sched.run(stream);
        }
        const double seconds = threadCpuSeconds() - t0;
        out.checks.expect(conserved(r), "conservation");
        if (firstDigest.empty()) {
            first = std::move(r);
            firstDigest = digestOf(first);
        } else {
            out.checks.expect(digestOf(r) == firstDigest,
                              "FleetScheduler::run not repeatable");
        }
        return seconds;
    };

    Tracer quiet(false);
    std::uint64_t op = 0;
    // serve-overload's first 10^6 run also faults in the report's
    // sample buffers; it runs untimed. (serve-steady's single long run
    // amortizes the same cost.)
    if (overload)
        serveOnce(quiet, op++);
    if (!opt.trace) {
        const std::vector<double> runS =
            repeatFor(opt.seconds, 1, [&] { return serveOnce(quiet, op++); });
        out.digest = firstDigest;
        out.endToEnd = {
            {"setup_s", setupS, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"host_ops_per_s",
             static_cast<double>(first.generated) / fastest(runS), "1/s"},
            {"model_latency_ms", first.meanMs(), "ms"},
            {"model_throughput_per_s", first.goodputRps(), "1/s"},
        };
        return out;
    }

    // Traced run: untraced and traced runs alternate (overhead), then
    // the per-layer ledger.
    std::vector<double> untracedS, tracedS;
    const auto start = Clock::now();
    while (untracedS.empty() || secondsSince(start) < opt.seconds / 2) {
        untracedS.push_back(serveOnce(quiet, op++));
        tracedS.push_back(serveOnce(tracer, op++));
    }
    out.digest = firstDigest;
    const double runNs = median(tracedS) * 1e9;

    // Each layer below runs inside its own span; the ledger and the
    // scheduler's self time are computed from the span totals.
    std::size_t peakBuffered = 0;
    {
        ScopedSpan span(tracer, "workload.drain", op);
        WorkloadStream stream(shape.spec);
        while (stream.peek() != nullptr)
            stream.take();
        peakBuffered = stream.peakBuffered();
    }
    const double forms = static_cast<double>(
        replayQueue(shape, setup.checkTrace, tracer));

    // runtime.map_cache: inserts into a full cache of the workload's
    // capacity, each of which evicts.
    constexpr std::uint64_t kInserts = 20'000;
    if (shape.config.mapCache.enabled) {
        MapCache cache(shape.config.mapCache);
        const std::uint64_t capacity = shape.config.mapCache.capacityEntries;
        for (std::uint64_t k = 1; k <= capacity; ++k)
            cache.insert({k, 0, 0}, {});
        ScopedSpan span(tracer, "map_cache.insert", op);
        for (std::uint64_t k = 1; k <= kInserts; ++k)
            cache.insert({capacity + k, 0, 0}, {});
    }

    Summary latency = first.latencyCycles;
    {
        ScopedSpan span(tracer, "serving_stats.percentile", op);
        for (const double p : {0.50, 0.95, 0.99})
            latency.percentile(p);
    }
    const double jsonS = medianSeconds(5, [&] {
        ScopedSpan span(tracer, "serving_stats.json", op);
        servingBytes(first);
    });

    constexpr double kNsPerMs = 1e6;
    const double drainNs = tracer.totalMs("workload.drain") * kNsPerMs;
    const double pushNs = tracer.totalMs("queue.push") * kNsPerMs /
                          static_cast<double>(setup.checkTrace.size());
    const double formNs = tracer.totalMs("batcher.form") * kNsPerMs / forms;
    const double insertNs =
        tracer.totalMs("map_cache.insert") * kNsPerMs / kInserts;
    const double events = static_cast<double>(first.loopEvents);
    const double selfNs =
        runNs - drainNs - pushNs * static_cast<double>(first.admitted) -
        formNs * static_cast<double>(first.batchSize.count()) -
        insertNs * static_cast<double>(first.mapCache.insertions);
    const double samples = static_cast<double>(
        first.latencyCycles.count() + first.queueWaitCycles.count() +
        first.batchSize.count() + first.completionCycles.size());
    const double gen = static_cast<double>(first.generated);
    out.layers = {
        {"workload.drain_ns_per_req", drainNs / gen, "ns"},
        {"workload.peak_buffered", static_cast<double>(peakBuffered),
         "count"},
        {"queue.push_ns", pushNs, "ns"},
        {"queue.model_drop_ratio", first.dropRate(), "ratio"},
        {"batcher.form_ns", formNs, "ns"},
        {"batcher.batch_size_mean", first.batchSize.mean(), "count"},
        {"batcher.holds", static_cast<double>(first.batchHolds), "count"},
        {"scheduler.events", events, "count"},
        {"scheduler.ns_per_event", runNs / events, "ns"},
        {"scheduler.self_ns_per_event", selfNs / events, "ns"},
        {"map_cache.hit_ratio", first.mapCache.hitRate(), "ratio"},
        {"map_cache.insert_ns", insertNs, "ns"},
        {"serving_stats.percentile_ms",
         tracer.totalMs("serving_stats.percentile"), "ms"},
        {"serving_stats.model_p99_ms", first.p99Ms(), "ms"},
        {"serving_stats.json_ms", jsonS * 1e3, "ms"},
        {"serving_stats.samples_retained", samples, "count"},
        {"trace.overhead_pct",
         100.0 * (median(tracedS) - median(untracedS)) / median(untracedS),
         "%"},
        {"trace.spans", static_cast<double>(tracer.size()), "count"},
    };
    if (!opt.tracePath.empty())
        tracer.write(opt.tracePath);
    return out;
}

} // namespace perfbench
