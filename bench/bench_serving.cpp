/**
 * @file
 * Serving-runtime benchmark: throughput and tail latency of PointAcc
 * fleets under open-loop load.
 *
 * Not a paper figure — this drives the runtime/ subsystem that grows
 * the reproduction toward a serving system. Eleven sweeps, one entry
 * each in the `kSweeps` table at the bottom of the file:
 *
 *  1. fleet scaling: 1 / 2 / 4 PointAcc instances at a fixed offered
 *     load (p99 must not increase with fleet size);
 *  2. queue policy: FIFO vs SJF at rising load on one instance;
 *  3. batching: on vs off for a batch-friendly (single-network) mix;
 *  4. occupancy: monolithic whole-run busy intervals vs the two-stage
 *     pipeline (Mapping Unit front-end overlapping the Matrix Unit +
 *     memory back-end of the previous dispatch) at fleet sizes 1 and
 *     2 — the pipeline must win throughput or p99 at equal fleet
 *     size (throughput is checked first: it is the robust signal,
 *     the fleet-2 p99 margin sits near a tie);
 *  5. wait-for-K batching: dispatch-immediately vs holding the queue
 *     head (bounded by a timeout) to accumulate same-network batches;
 *  6. kernel-map cache: repeated-frame stream traffic (mapReuseProb
 *     0 / 0.5 / 0.9) served with the content-addressed map cache on
 *     vs off at fleet sizes 1 and 2 — at reuse >= 0.5 caching must
 *     strictly improve p99 or throughput;
 *  7. capacity planning (`--sweep plan`, opt-in — it runs its own
 *     exhaustive cross-check grid, so `all` excludes it): the
 *     CapacityPlanner's pick on a quick grid must equal the
 *     exhaustive-search optimum while spending strictly fewer probes,
 *     within a fixed probe budget. `--smoke` shrinks this sweep to a
 *     2-probe exhaustive micro-grid for the sanitized CI pass.
 *  8. heterogeneous capacity planning (`--sweep hetero`, opt-in like
 *     plan): a two-kind composition lattice — a 2 GHz server-class
 *     PointAcc and a 1 GHz PointAcc.Edge (Table 3's split, with the
 *     server clock raised so the wall-clock event axis genuinely
 *     converts two frequencies) — searched under the watts objective
 *     with a binding watt budget. Gates: the lattice pick equals the
 *     exhaustive oracle's while spending strictly fewer probes, the
 *     budget excludes real lattice points, the parallel plan is
 *     byte-identical to serial, and a uniform-1 GHz mixed
 *     server+edge fleet served by the production scheduler is
 *     byte-identical to the frozen cycle-domain reference engine
 *     (the time-domain migration's identity check on a fleet the
 *     homogeneous differential suite cannot build). `--smoke`
 *     shrinks the lattice to 3 compositions of structural checks for
 *     the sanitized passes.
 *  9. traffic programs (`--sweep traffic`, opt-in like plan): a
 *     flash-crowd program (runtime/traffic) is sized by the
 *     CapacityPlanner, then replayed against (a) that static fleet
 *     and (b) the reactive autoscaler (runtime/autoscaler) starting
 *     from a one-instance floor. Gates: the planner's fleet holds its
 *     p99 SLO through the crowd, the autoscaler scales up at least
 *     once and converges (no scale action in the final 10% of the
 *     horizon), and its powered-instance-cycle total undercuts static
 *     provisioning — quantifying exactly what static sizing buys.
 *     `--smoke` shrinks it to structural checks for the sanitized
 *     pass.
 * 10. fault injection (`--sweep faults`, opt-in like plan): five
 *     scenarios on a two-instance fleet — fault-free baseline, a
 *     scheduled mid-horizon crash with bounded-backoff retries, a
 *     straggler window, a stochastic MTBF/MTTR process and hedged
 *     re-dispatch — plus three gates: (a) an enabled-but-empty fault
 *     program leaves the 1 GHz production engine byte-identical to
 *     the frozen cycle-domain reference; (b) the availability-mode
 *     planner (PlanSearchSpace::faults) pays for spare capacity, and
 *     that spare rides out a crash the nominal fleet provably fails;
 *     (c) every faulted row keeps the extended conservation identity
 *     admitted = completed + failed + leftover and goodput <=
 *     throughput. `--smoke` keeps the rows and identity gate but
 *     relaxes (b) to structural checks (short horizons make the
 *     nominal fleet's SLO miss a coin flip).
 * 11. run-ahead + cost-aware dispatch (`--sweep runahead`, opt-in
 *     like plan): two grids. (a) The dispatch trio — pure-eager
 *     (target K 1), pure-hold (wait-for-K with the blind timer) and
 *     the cost-aware hold-vs-dispatch — on Poisson single-network
 *     traffic at the amortized capacity knee, gated on cost-aware
 *     winning throughput or p99 against BOTH baselines. (b) A
 *     run-ahead depth ladder (k = 1/2/4, batching off, unbounded
 *     queue) where deepening the mapped-output buffer must never
 *     lose throughput or p99 (each map can only start earlier).
 *     Plus the byte-identity gate: depth 1 with cost-aware off is
 *     byte-identical to the frozen reference engine. `--smoke`
 *     keeps rows and identity but relaxes the perf gates to
 *     structural checks.
 *
 * Each sweep is one function returning its rows and its gates (a
 * printed line plus a verdict); main runs the selected entries in
 * table order, then prints acceptance check 0 (profiling
 * memoization) and every gate. Results print as a table and are
 * dumped to BENCH_serving.json for the machine-readable perf
 * trajectory; an opt-in sweep appends its envelope object (`plan`,
 * `hetero_plan`, `traffic` or `faults`) after the rows.
 *
 * Usage: bench_serving [--sweep NAME] [--quick] [--smoke]
 *        [--threads N] [--json PATH | --no-json]
 * `--sweep` takes a table name or `all` (the default: the six
 * non-opt-in sweeps); `--quick` shrinks the arrival horizon;
 * `--smoke` applies to the opt-in sweeps only. Exit codes: 0 when
 * every gate of the sweeps that ran holds, 1 when one is violated or
 * the JSON cannot be written, 2 on an unknown argument or sweep name,
 * a non-numeric `--threads` or one above ProbeExecutor::kMaxThreads,
 * or `--smoke` on a sweep without one.
 *
 * `--threads N` (default 1 = serial, 0 = one per hardware thread)
 * runs each sweep's scenario matrix on a work-stealing ProbeExecutor
 * and hands the planner the same thread budget for speculative
 * probes. Rows come back in declaration order whatever the execution
 * interleaving, and every scenario is a pure function of its (spec,
 * config) inputs, so BENCH_serving.json is byte-identical to a serial
 * run; for the planner that identity is gated here — the parallel
 * plan is re-run serially and the two writePlanJson outputs must
 * match byte for byte.
 *
 * State hygiene: every sweep derives its WorkloadSpec from one const
 * `base` and owns its mutations locally; the only object shared
 * across rows is the SimServiceModel, whose memoized profiles are
 * pure values (gated by acceptance check 0). Row JSON is therefore
 * independent of which sweeps ran and in what order —
 * tests/test_runtime_properties.cpp pins that property.
 */

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/json.hpp"
#include "nn/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/planner.hpp"
#include "runtime/reference.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serving_stats.hpp"
#include "runtime/traffic.hpp"
#include "runtime/workload.hpp"
#include "sim/accel_config.hpp"

using namespace pointacc;

namespace {

struct Row
{
    std::string sweep;
    std::string process;
    double offeredPerMCycle = 0.0;
    std::size_t fleetSize = 0;
    std::string policy;
    bool batching = false;
    std::string occupancy;
    std::uint32_t targetK = 1;
    std::uint64_t maxWaitCycles = 0;
    bool mapCacheOn = false;
    double mapReuseProb = 0.0;
    ServingReport report;
};

/** A row echoing the (spec, config) inputs that produced `report`. */
Row
makeRow(const std::string &sweep, std::size_t fleet_size,
        const WorkloadSpec &wspec, const SchedulerConfig &scfg,
        ServingReport report)
{
    Row row;
    row.sweep = sweep;
    row.process = toString(wspec.arrivals);
    row.offeredPerMCycle = wspec.requestsPerMCycle;
    row.fleetSize = fleet_size;
    row.policy = toString(scfg.policy);
    row.batching = scfg.batcher.enabled;
    row.occupancy = toString(scfg.occupancy);
    row.targetK = scfg.batcher.targetK;
    row.maxWaitCycles = scfg.batcher.maxWaitCycles;
    row.mapCacheOn = scfg.mapCache.enabled;
    for (const auto &cls : wspec.mix)
        row.mapReuseProb = std::max(row.mapReuseProb, cls.mapReuseProb);
    row.report = std::move(report);
    return row;
}

SchedulerConfig
makeConfig(QueuePolicy policy, bool batching,
           OccupancyModel occupancy = OccupancyModel::Pipelined,
           std::uint32_t target_k = 1, std::uint64_t max_wait = 0)
{
    SchedulerConfig scfg;
    scfg.policy = policy;
    scfg.occupancy = occupancy;
    scfg.batcher.enabled = batching;
    scfg.batcher.targetK = target_k;
    scfg.batcher.maxWaitCycles = max_wait;
    scfg.queueDepth = 256;
    return scfg;
}

void
printHeader()
{
    std::printf("%-9s %-8s %7s %5s %6s %5s %4s | %9s %8s %8s %8s %6s "
                "%6s %5s %5s\n",
                "sweep", "process", "offered", "fleet", "policy", "batch",
                "occ", "thru r/s", "p50 ms", "p95 ms", "p99 ms", "util",
                "drop%", "B", "hit%");
    bench::rule(122);
}

void
printRow(const Row &r)
{
    double utilSum = 0.0;
    for (const auto &acc : r.report.accelerators)
        utilSum += acc.utilization(r.report.horizonCycles);
    const double util =
        r.report.accelerators.empty()
            ? 0.0
            : utilSum / static_cast<double>(r.report.accelerators.size());
    char batch[8];
    if (!r.batching)
        std::snprintf(batch, sizeof batch, "off");
    else if (r.targetK > 1)
        std::snprintf(batch, sizeof batch, "K=%u", r.targetK);
    else
        std::snprintf(batch, sizeof batch, "on");
    char hit[8];
    if (r.mapCacheOn)
        std::snprintf(hit, sizeof hit, "%5.1f",
                      100.0 * r.report.mapCache.hitRate());
    else
        std::snprintf(hit, sizeof hit, "    -");
    std::printf(
        "%-9s %-8s %7.2f %5zu %6s %5s %4s | %9.0f %8.3f %8.3f %8.3f "
        "%6.2f %6.2f %5.1f %5s\n",
        r.sweep.c_str(), r.process.c_str(), r.offeredPerMCycle, r.fleetSize,
        r.policy.c_str(), batch,
        r.occupancy == "pipelined" ? "pipe" : "mono",
        r.report.throughputRps(), r.report.p50Ms(), r.report.p95Ms(),
        r.report.p99Ms(), util, 100.0 * r.report.dropRate(),
        r.report.batchSize.mean(), hit);
}

/** ns (== cycles at the 1 GHz reference clock) -> ms. */
double
toMs(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** One acceptance check: its printed line and its verdict. */
struct Gate
{
    std::string line;
    bool ok = false;
};

/** What one sweep hands back to main. */
struct SweepResult
{
    std::vector<Row> rows;
    std::vector<Gate> gates;
    /** Writes the sweep's envelope object (key included) after the
     *  rows; only opt-in sweeps set it, and only one of them runs. */
    std::function<void(JsonWriter &)> envelope;

    /** Appends a gate whose line is printf-formatted. */
    __attribute__((format(printf, 3, 4))) void
    gate(bool ok, const char *fmt, ...)
    {
        char line[512];
        va_list args;
        va_start(args, fmt);
        std::vsnprintf(line, sizeof line, fmt, args);
        va_end(args);
        gates.push_back({line, ok});
    }
};

void
writeRows(std::ostream &os, const std::vector<Row> &rows,
          const std::function<void(JsonWriter &)> &envelope)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("bench", "serving");
    w.key("rows").beginArray();
    for (const auto &r : rows) {
        w.beginObject();
        w.field("sweep", r.sweep);
        w.field("process", r.process);
        w.field("offered_per_mcycle", r.offeredPerMCycle);
        w.field("fleet_size", static_cast<std::uint64_t>(r.fleetSize));
        w.field("policy", r.policy);
        w.field("batching", r.batching);
        w.field("occupancy", r.occupancy);
        w.field("target_k", r.targetK);
        w.field("max_wait_cycles", r.maxWaitCycles);
        w.field("map_cache", r.mapCacheOn);
        w.field("map_reuse_prob", r.mapReuseProb);
        w.field("throughput_rps", r.report.throughputRps());
        w.field("latency_ms_p50", r.report.p50Ms());
        w.field("latency_ms_p95", r.report.p95Ms());
        w.field("latency_ms_p99", r.report.p99Ms());
        w.field("drop_rate", r.report.dropRate());
        w.field("completed", r.report.completed);
        w.field("failed", r.report.failed);
        w.field("goodput_rps", r.report.goodputRps());
        w.field("deadline_misses", r.report.deadlineMisses);
        w.field("batch_size_mean", r.report.batchSize.mean());
        w.field("batch_holds", r.report.batchHolds);
        w.field("map_cache_hits", r.report.mapCache.hits);
        w.field("map_cache_misses", r.report.mapCache.misses);
        w.field("map_cache_evictions", r.report.mapCache.evictions);
        w.field("map_cache_bytes_saved", r.report.mapCache.bytesSaved);
        w.field("map_cache_hit_rate", r.report.mapCache.hitRate());
        if (r.report.runAheadDepth != 1) {
            w.field("run_ahead_depth", r.report.runAheadDepth);
            w.field("run_ahead_staged", r.report.runAheadStaged);
            w.field("run_ahead_peak_staged", r.report.runAheadPeakStaged);
        }
        if (r.report.costAware) {
            w.field("cost_aware_holds", r.report.costHolds);
            w.field("cost_aware_dispatches", r.report.costDispatches);
        }
        if (r.report.faults.enabled) {
            w.field("fault_crashes", r.report.faults.crashes);
            w.field("fault_recoveries", r.report.faults.recoveries);
            w.field("fault_failovers", r.report.faults.failovers);
            w.field("retry_attempts", r.report.faults.retryAttempts);
            w.field("retry_hedges", r.report.faults.hedges);
        }
        w.endObject();
    }
    w.endArray();
    if (envelope)
        envelope(w);
    w.endObject();
    os << '\n';
}

/** Same configuration, field for field? (The plan gate's equality.) */
bool
samePlanChoice(const PlanProbe &a, const PlanProbe &b)
{
    return a.fleetSize == b.fleetSize &&
           a.composition == b.composition && a.policy == b.policy &&
           a.batching == b.batching && a.targetK == b.targetK &&
           a.maxWaitCycles == b.maxWaitCycles &&
           a.mapCacheOn == b.mapCacheOn;
}

/** One planner probe as a table line; `offered` and `fleet` fill the
 *  row table's columns of the same name. */
void
printProbe(const char *sweep, const char *offered, const char *fleet,
           const PlanProbe &p)
{
    // p99 is on the wall-clock event axis: ns -> ms is frequency-free.
    std::printf("%-9s %-8s %7s %5s %6s %5s %4s | %9.0f %8s %8s "
                "%8.3f %6s %6.2f %5s %5s\n",
                sweep, "-", offered, fleet, toString(p.policy).c_str(),
                p.batching ? "on" : "off", p.mapCacheOn ? "$on" : "$off",
                p.throughputRps, "-", "-", p.p99Cycles / 1e6,
                p.meetsSlo ? "MEET" : "miss", 100.0 * p.dropRate, "-",
                "-");
}

/** Everything a sweep reads: the shared model and pool, the CLI
 *  knobs, and the frozen base spec priced against one PointAcc. */
struct Ctx
{
    const SimServiceModel &model;
    ProbeExecutor &pool;
    std::size_t threads;     ///< --threads as given, for planners
    std::size_t poolThreads; ///< resolved worker count; 0 = inline
    bool quick;
    bool smoke;
    WorkloadSpec base;
    double meanCycles;        ///< mix mean service on one PointAcc
    double capacityPerMCycle; ///< one instance's capacity on the mix
};

/** One sweep row's inputs. */
struct Scenario
{
    std::string sweep;
    std::size_t fleetSize;
    WorkloadSpec spec;
    SchedulerConfig cfg;
};

/** The one runner: every scenario is a pool task on a fleet of stock
 *  PointAccs; rows come back, and print, in declaration order. */
SweepResult
runRows(const Ctx &c, const std::vector<Scenario> &scenarios)
{
    std::vector<std::function<Row()>> tasks;
    for (const Scenario &s : scenarios)
        tasks.push_back([&c, &s] {
            const std::vector<AcceleratorConfig> fleet(s.fleetSize,
                                                       pointAccConfig());
            FleetScheduler sched(fleet, c.model,
                                 c.model.catalog().bucketScales, s.cfg);
            return makeRow(s.sweep, s.fleetSize, s.spec, s.cfg,
                           sched.run(WorkloadGenerator(s.spec).generate()));
        });
    SweepResult res;
    res.rows = c.pool.map(std::move(tasks));
    for (const Row &row : res.rows)
        printRow(row);
    return res;
}

/** Solo service cycles of `network` (small bucket) on one PointAcc. */
double
soloCycles(const Ctx &c, std::uint32_t network)
{
    return static_cast<double>(
        c.model.profile(pointAccConfig(), network, 0).totalCycles);
}

/** Bursty all-PointNet-small traffic at 0.9x one instance's solo
 *  capacity, for the batching-centric sweeps (bursts of same-class
 *  requests are what batching can coalesce). */
WorkloadSpec
burstSpec(const Ctx &c)
{
    WorkloadSpec spec = c.base;
    spec.arrivals = ArrivalProcess::Bursty;
    spec.meanBurstSize = 6;
    spec.mix = {{0, 0, 1.0, 0}};
    spec.requestsPerMCycle = 0.9 * 1e6 / soloCycles(c, 0);
    return spec;
}

CapacityPlanner
makePlanner(const Ctx &c, const AcceleratorConfig &instance,
            std::size_t threads)
{
    PlannerConfig cfg;
    cfg.threads = threads;
    return CapacityPlanner(instance, c.model, c.model.catalog().bucketScales,
                           cfg);
}

/** Differential gate: when probes ran in parallel, the report must
 *  still be byte-identical to a serial plan — speculation may spend
 *  extra simulations, never change the probe log, the pick or a
 *  single serialized byte. No gate when the pool is inline. */
void
gateSerialReplan(const Ctx &c, SweepResult &res, const char *what,
                 const AcceleratorConfig &instance, const PlanReport &report,
                 const WorkloadSpec &spec, const SloSpec &slo,
                 const PlanSearchSpace &space)
{
    if (c.poolThreads == 0)
        return;
    std::ostringstream parallelJson, serialJson;
    writePlanJson(parallelJson, report);
    writePlanJson(serialJson,
                  makePlanner(c, instance, 1).plan(spec, slo, space));
    res.gate(parallelJson.str() == serialJson.str(),
             "parallel %s byte-identical to serial (%zu-thread "
             "speculation)",
             what, c.poolThreads);
}

/** Serves one shared 1.5x-capacity trace on `fleet` with the
 *  production scheduler under `prod` and with the frozen cycle-domain
 *  reference engine under `ref`: identical serving JSON bytes? */
bool
matchesReference(const Ctx &c, const std::vector<AcceleratorConfig> &fleet,
                 const SchedulerConfig &prod, const SchedulerConfig &ref)
{
    WorkloadSpec spec = c.base;
    spec.horizonCycles = c.smoke ? 5'000'000 : 20'000'000;
    spec.requestsPerMCycle = 1.5 * c.capacityPerMCycle;
    const auto trace = WorkloadGenerator(spec).generate();
    const auto &scales = c.model.catalog().bucketScales;
    std::ostringstream prodJson, refJson;
    writeServingJson(prodJson,
                     FleetScheduler(fleet, c.model, scales, prod).run(trace));
    writeServingJson(refJson,
                     runServingReference(fleet, c.model, scales, ref, trace));
    return prodJson.str() == refJson.str();
}

// Sweep 1: fleet scaling at a load that saturates one instance; p99
// must not increase with fleet size.
SweepResult
sweepFleet(const Ctx &c)
{
    WorkloadSpec spec = c.base;
    spec.requestsPerMCycle = 1.5 * c.capacityPerMCycle;
    std::vector<Scenario> scenarios;
    for (const std::size_t fleetSize : {1u, 2u, 4u})
        scenarios.push_back({"fleet", fleetSize, spec,
                             makeConfig(QueuePolicy::Fifo, false)});
    SweepResult res = runRows(c, scenarios);
    const double p99_1 = res.rows[0].report.p99Ms();
    const double p99_2 = res.rows[1].report.p99Ms();
    const double p99_4 = res.rows[2].report.p99Ms();
    res.gate(p99_1 >= p99_2 && p99_2 >= p99_4,
             "fleet-scaling p99: 1x %.3f >= 2x %.3f >= 4x %.3f ms", p99_1,
             p99_2, p99_4);
    return res;
}

// Sweep 2: FIFO vs SJF, one instance, rising load.
SweepResult
sweepPolicy(const Ctx &c)
{
    std::vector<Scenario> scenarios;
    for (const double frac : {0.6, 0.9, 1.2}) {
        WorkloadSpec spec = c.base;
        spec.requestsPerMCycle = frac * c.capacityPerMCycle;
        for (const QueuePolicy pol : {QueuePolicy::Fifo, QueuePolicy::Sjf})
            scenarios.push_back({"policy", 1, spec, makeConfig(pol, false)});
    }
    return runRows(c, scenarios);
}

// Sweep 3: batching on/off under bursty single-network traffic.
SweepResult
sweepBatching(const Ctx &c)
{
    const WorkloadSpec spec = burstSpec(c);
    std::vector<Scenario> scenarios;
    for (const bool batching : {false, true})
        scenarios.push_back({"batching", 1, spec,
                             makeConfig(QueuePolicy::Fifo, batching)});
    return runRows(c, scenarios);
}

// Sweep 4: monolithic vs pipelined occupancy on the default mix.
// The two-stage pipeline overlaps the mapping phase of dispatch i+1
// with the back-end of dispatch i, raising effective capacity without
// adding hardware; at equal fleet size it must deliver more throughput
// or a better tail. Offered load scales with fleet size (1.5x capacity
// per instance) so both sizes run saturated, where capacity is what
// sets the tail. Throughput is checked first — it is the robust signal
// for the capacity the overlap adds; the p99 comparison at fleet 2
// sits within hundredths of a ms of a tie, so it only decides when
// throughput does not.
SweepResult
sweepPipeline(const Ctx &c)
{
    std::vector<Scenario> scenarios;
    for (const std::size_t fleetSize : {1u, 2u}) {
        WorkloadSpec spec = c.base;
        spec.requestsPerMCycle =
            1.5 * c.capacityPerMCycle * static_cast<double>(fleetSize);
        for (const OccupancyModel occ :
             {OccupancyModel::Monolithic, OccupancyModel::Pipelined})
            scenarios.push_back({"pipeline", fleetSize, spec,
                                 makeConfig(QueuePolicy::Fifo, false, occ)});
    }
    SweepResult res = runRows(c, scenarios);
    for (std::size_t i = 0; i + 1 < res.rows.size(); i += 2) {
        const Row &mono = res.rows[i];
        const Row &pipe = res.rows[i + 1];
        const double pm = mono.report.p99Ms();
        const double pp = pipe.report.p99Ms();
        const double tm = mono.report.throughputRps();
        const double tp = pipe.report.throughputRps();
        res.gate(tp > tm || pp < pm,
                 "pipeline vs monolithic (fleet %zu): thru %.0f vs %.0f "
                 "r/s, p99 %.3f vs %.3f ms",
                 mono.fleetSize, tp, tm, pp, pm);
    }
    return res;
}

// Sweep 5: wait-for-K batching under bursty single-network load.
// Holding the head briefly (bounded by the timer) accumulates bigger
// same-network batches, amortizing more weight reloads.
SweepResult
sweepWaitForK(const Ctx &c)
{
    const WorkloadSpec spec = burstSpec(c);
    const auto maxWait = static_cast<std::uint64_t>(2.0 * soloCycles(c, 0));
    std::vector<Scenario> scenarios;
    for (const std::uint32_t k : {1u, 4u, 8u})
        scenarios.push_back(
            {"wait-for-k", 1, spec,
             makeConfig(QueuePolicy::Fifo, true, OccupancyModel::Pipelined,
                        k, k > 1 ? maxWait : 0)});
    return runRows(c, scenarios);
}

// Sweep 6: cross-request kernel-map cache on repeated-frame streams.
// Each mix class becomes its own LiDAR-style stream; mapReuseProb sets
// how often a frame repeats (the achievable hit rate). Batching stays
// off so the comparison isolates the cache (hit/miss batch purity is
// covered by the runtime tests). A hit collapses the Mapping Unit
// front-end phase to a modelled cache read, so at reuse >= 0.5 the
// cache must strictly improve p99 or throughput over the identical
// cache-off run (same trace, same fleet).
SweepResult
sweepCache(const Ctx &c)
{
    WorkloadSpec spec = c.base;
    for (std::size_t i = 0; i < spec.mix.size(); ++i)
        spec.mix[i].streamId = static_cast<std::uint32_t>(i);
    const SchedulerConfig cacheOff = makeConfig(QueuePolicy::Fifo, false);
    SchedulerConfig cacheOn = cacheOff;
    cacheOn.mapCache.enabled = true;
    cacheOn.mapCache.capacityEntries = 4096;
    cacheOn.mapCache.eviction = MapCacheEviction::Lru;
    // Streaming the stored maps back from DRAM is far from free, but
    // far cheaper than re-sorting: model it as a small fixed read per
    // request.
    cacheOn.mapCache.hitReadCycles = 2'000;
    std::vector<Scenario> scenarios;
    for (const std::size_t fleetSize : {1u, 2u}) {
        spec.requestsPerMCycle =
            1.5 * c.capacityPerMCycle * static_cast<double>(fleetSize);
        for (const double reuse : {0.0, 0.5, 0.9}) {
            for (auto &cls : spec.mix)
                cls.mapReuseProb = reuse;
            scenarios.push_back({"map-cache", fleetSize, spec, cacheOff});
            scenarios.push_back({"map-cache", fleetSize, spec, cacheOn});
        }
    }
    SweepResult res = runRows(c, scenarios);
    for (std::size_t i = 0; i + 1 < res.rows.size(); i += 2) {
        const Row &off = res.rows[i];
        const Row &on = res.rows[i + 1];
        if (on.mapReuseProb < 0.5)
            continue;
        const double po = off.report.p99Ms();
        const double pc = on.report.p99Ms();
        const double to = off.report.throughputRps();
        const double tc = on.report.throughputRps();
        res.gate(pc < po || tc > to,
                 "map-cache vs off (fleet %zu, reuse %.1f): p99 %.3f vs "
                 "%.3f ms, thru %.0f vs %.0f r/s, hit-rate %.0f%%",
                 on.fleetSize, on.mapReuseProb, pc, po, tc, to,
                 100.0 * on.report.mapCache.hitRate());
    }
    return res;
}

// Sweep 7 (`--sweep plan`, opt-in): SLO-driven capacity planning. The
// planner searches fleet 1..10 x {FIFO, SJF} x {cache off, on} for the
// cheapest fleet meeting a p99 SLO calibrated off a mid-grid probe;
// the exhaustive grid is then run as the oracle. The pick must equal
// the oracle's while spending strictly fewer probes, inside a fixed
// probe budget (3/4 of the grid — galloping + bisection should beat
// that comfortably; the budget catches a silent degradation to
// near-exhaustive search). `--smoke` instead runs a 2-probe exhaustive
// micro-grid, sized for the sanitized CI pass: it just has to complete
// a real plan and keep its accounting straight.
SweepResult
sweepPlan(const Ctx &c)
{
    const CapacityPlanner planner =
        makePlanner(c, pointAccConfig(), c.threads);
    SweepResult res;
    PlanReport plan;
    if (c.smoke) {
        WorkloadSpec spec = c.base;
        spec.horizonCycles = 5'000'000;
        spec.requestsPerMCycle = 1.2 * c.capacityPerMCycle;
        PlanSearchSpace space;
        space.minFleetSize = 1;
        space.maxFleetSize = 2;
        space.base = makeConfig(QueuePolicy::Fifo, false);
        SloSpec slo;
        slo.minThroughputRps = 1.0;
        plan = planner.planExhaustive(spec, slo, space);
        res.gate(plan.probesSpent == 2 && plan.exhaustiveProbes == 2,
                 "plan smoke: %llu probes over a 2-point grid, feasible=%s",
                 static_cast<unsigned long long>(plan.probesSpent),
                 plan.feasible ? "yes" : "no");
    } else {
        WorkloadSpec spec = c.base;
        spec.horizonCycles = c.quick ? 40'000'000 : 120'000'000;
        spec.requestsPerMCycle = 2.5 * c.capacityPerMCycle;
        // Each mix class is a repeated-frame stream so the map-cache
        // axis changes real outcomes.
        for (std::size_t i = 0; i < spec.mix.size(); ++i) {
            spec.mix[i].streamId = static_cast<std::uint32_t>(i);
            spec.mix[i].mapReuseProb = 0.5;
        }
        PlanSearchSpace space;
        space.minFleetSize = 1;
        space.maxFleetSize = 10;
        space.policies = {QueuePolicy::Fifo, QueuePolicy::Sjf};
        space.mapCacheOptions = {false, true};
        space.base = makeConfig(QueuePolicy::Fifo, false);
        space.base.mapCache.capacityEntries = 4096;
        space.base.mapCache.eviction = MapCacheEviction::Lru;
        space.base.mapCache.hitReadCycles = 2'000;

        // SLO calibrated off a mid-grid probe (FIFO, cache off, fleet
        // 4): feasible inside the range, not trivially at fleet 1,
        // whatever the horizon setting.
        const auto trace = WorkloadGenerator(spec).generate();
        SloSpec slo;
        slo.maxP99Cycles = static_cast<std::uint64_t>(
                               planner.probe(4, space.base, trace)
                                   .p99Cycles()) +
                           1;
        plan = planner.plan(spec, slo, space);
        const PlanReport oracle = planner.planExhaustive(spec, slo, space);
        std::printf("capacity plan: SLO p99 <= %llu cycles over fleet "
                    "%zu..%zu x {fifo,sjf} x {cache off,on} (%llu grid "
                    "points)\n",
                    static_cast<unsigned long long>(slo.maxP99Cycles),
                    space.minFleetSize, space.maxFleetSize,
                    static_cast<unsigned long long>(space.gridSize()));
        for (const auto &p : plan.probes)
            printProbe("plan", "-", std::to_string(p.fleetSize).c_str(), p);

        const PlanProbe &a = plan.chosen;
        const PlanProbe &b = oracle.chosen;
        res.gate(plan.feasible && oracle.feasible && samePlanChoice(a, b),
                 "plan vs exhaustive: fleet %zu %s batch=%s cache=%s vs "
                 "fleet %zu %s batch=%s cache=%s",
                 a.fleetSize, toString(a.policy).c_str(),
                 a.batching ? "on" : "off", a.mapCacheOn ? "on" : "off",
                 b.fleetSize, toString(b.policy).c_str(),
                 b.batching ? "on" : "off", b.mapCacheOn ? "on" : "off");
        const std::uint64_t budget = 3 * plan.exhaustiveProbes / 4;
        res.gate(plan.probesSpent < oracle.probesSpent &&
                     plan.probesSpent <= budget,
                 "plan probe spend: %llu of %llu grid points (budget %llu, "
                 "monotone fleet axis: %s)",
                 static_cast<unsigned long long>(plan.probesSpent),
                 static_cast<unsigned long long>(plan.exhaustiveProbes),
                 static_cast<unsigned long long>(budget),
                 plan.monotoneFleetAxis ? "yes" : "no");
        gateSerialReplan(c, res, "plan", pointAccConfig(), plan, spec, slo,
                         space);
    }
    res.envelope = [plan](JsonWriter &w) {
        w.key("plan");
        writePlanObject(w, plan);
    };
    return res;
}

// Sweep 8 (`--sweep hetero`, opt-in): heterogeneous cost-aware capacity
// planning on the wall-clock event axis. The lattice mixes a 2 GHz
// server-class PointAcc (distinct name: the service model memoizes per
// accelerator class) with the 1 GHz edge part, under the watts
// objective and a binding watt budget; the planner's ray search must
// agree with the exhaustive lattice oracle while spending strictly
// fewer probes. A separate differential gate pins the time-domain
// migration itself: a uniform-1 GHz mixed server+edge fleet — which
// the homogeneous property suite can never build — served by the
// production scheduler must be byte-identical to the frozen
// cycle-domain reference engine, because ns == cycles at 1 GHz.
SweepResult
sweepHetero(const Ctx &c)
{
    AcceleratorConfig server = pointAccConfig();
    server.name = "PointAcc@2GHz";
    server.freqGHz = 2.0;
    const AcceleratorConfig edge = pointAccEdgeConfig();
    const CapacityPlanner planner = makePlanner(c, server, c.threads);

    PlanSearchSpace space;
    space.base = makeConfig(QueuePolicy::Fifo, false);
    space.objective = PlanObjective::Watts;
    space.kinds = {{server, 0.0, 1.0, 0, c.smoke ? 1u : 10u},
                   {edge, 0.0, 1.0, 0, c.smoke ? 1u : 2u}};

    WorkloadSpec spec = c.base;
    spec.horizonCycles =
        c.smoke ? 5'000'000 : (c.quick ? 40'000'000 : 120'000'000);
    spec.requestsPerMCycle = (c.smoke ? 1.2 : 2.5) * c.capacityPerMCycle;
    const auto trace = WorkloadGenerator(spec).generate();

    // SLO calibrated off a mid-lattice composition: feasible, but not
    // trivially so at the lattice floor.
    const std::vector<std::size_t> calibComp =
        c.smoke ? std::vector<std::size_t>{1, 1}
                : std::vector<std::size_t>{4, 1};
    SloSpec slo;
    slo.maxP99Cycles =
        static_cast<std::uint64_t>(
            planner.probeComposition(space, calibComp, space.base, trace)
                .p99Cycles()) +
        1;

    SweepResult res;
    PlanReport plan;
    if (c.smoke) {
        // Structural half: a real exhaustive lattice plan over 3
        // compositions ({1,0}, {0,1}, {1,1} — the empty fleet is
        // excluded by construction), every probe carrying a 2-kind
        // composition and a positive cost.
        plan = planner.planExhaustive(spec, slo, space);
        bool shaped = plan.probesSpent == 3 && plan.exhaustiveProbes == 3;
        for (const auto &p : plan.probes)
            shaped = shaped && p.composition.size() == 2 && p.cost > 0.0 &&
                     p.fleetSize == p.composition[0] + p.composition[1];
        res.gate(shaped,
                 "hetero smoke: %llu probes over a 3-composition lattice, "
                 "feasible=%s",
                 static_cast<unsigned long long>(plan.probesSpent),
                 plan.feasible ? "yes" : "no");
    } else {
        // Watt budget: it must exclude real compositions (binding)
        // while keeping headroom above the calibration point.
        const std::uint64_t unbounded = space.compositionCount();
        space.maxCostBudget =
            7.0 * nominalWatts(server) + 2.0 * nominalWatts(edge);
        const std::uint64_t bounded = space.compositionCount();

        plan = planner.plan(spec, slo, space);
        const PlanReport oracle = planner.planExhaustive(spec, slo, space);
        std::printf("hetero plan: SLO p99 <= %.3f ms over server 0..%zu x "
                    "edge 0..%zu under %.1f W budget (%llu of %llu "
                    "compositions in budget)\n",
                    toMs(slo.maxP99Cycles), space.kinds[0].maxCount,
                    space.kinds[1].maxCount, space.maxCostBudget,
                    static_cast<unsigned long long>(bounded),
                    static_cast<unsigned long long>(unbounded));
        for (const auto &p : plan.probes) {
            char comp[16];
            std::snprintf(comp, sizeof comp, "%zu+%zue", p.composition[0],
                          p.composition[1]);
            char watts[16];
            std::snprintf(watts, sizeof watts, "%7.1fW", p.cost);
            printProbe("hetero", watts, comp, p);
        }

        const auto compText = [](const PlanProbe &p) {
            std::string s;
            for (std::size_t k = 0; k < p.composition.size(); ++k)
                s += (k ? "+" : "") + std::to_string(p.composition[k]);
            return s.empty() ? std::string("-") : s;
        };
        res.gate(plan.feasible && oracle.feasible &&
                     samePlanChoice(plan.chosen, oracle.chosen),
                 "hetero vs exhaustive: composition %s (%.1f W) vs %s "
                 "(%.1f W)",
                 compText(plan.chosen).c_str(), plan.chosen.cost,
                 compText(oracle.chosen).c_str(), oracle.chosen.cost);
        res.gate(plan.probesSpent < oracle.probesSpent && bounded < unbounded,
                 "hetero probe spend: %llu of %llu lattice points (budget "
                 "cut %llu -> %llu compositions, monotone rays: %s)",
                 static_cast<unsigned long long>(plan.probesSpent),
                 static_cast<unsigned long long>(oracle.probesSpent),
                 static_cast<unsigned long long>(unbounded),
                 static_cast<unsigned long long>(bounded),
                 plan.monotoneFleetAxis ? "yes" : "no");
        gateSerialReplan(c, res, "hetero plan", server, plan, spec, slo,
                         space);
    }
    const SchedulerConfig nsCfg = makeConfig(QueuePolicy::Fifo, false);
    res.gate(matchesReference(c, {pointAccConfig(), pointAccEdgeConfig()},
                              nsCfg, nsCfg),
             "uniform-1GHz mixed fleet vs frozen cycle-domain reference "
             "(byte-identical serving JSON)");
    res.envelope = [plan](JsonWriter &w) {
        w.key("hetero_plan");
        writePlanObject(w, plan);
    };
    return res;
}

// Sweep 9 (`--sweep traffic`, opt-in): the closed loop. A flash crowd
// (6x the base rate over 20% of the horizon) is sized by the
// CapacityPlanner, then the same program runs against (a) the
// planner's static fleet and (b) the reactive autoscaler starting from
// one instance — static capacity vs reactive cost, on one trace. Full
// and quick runs demand the real outcome — the planner's fleet rides
// out the crowd inside its SLO, the autoscaler reacts (>= 1 scale-up),
// settles (no scale action in the final 10% of the horizon) and
// undercuts static provisioning on instance-cycles. The smoke run
// keeps the structural half: a real plan, honest conservation and
// scaling accounting, savings never negative.
SweepResult
sweepTraffic(const Ctx &c)
{
    WorkloadSpec tbase = c.base;
    tbase.horizonCycles =
        c.smoke ? 6'000'000 : (c.quick ? 60'000'000 : 200'000'000);
    tbase.requestsPerMCycle = 0.6 * c.capacityPerMCycle;
    const std::uint64_t H = tbase.horizonCycles;
    const TrafficProgram program = flashCrowdProgram(tbase, 6.0, 0.3, 0.2);

    const CapacityPlanner planner =
        makePlanner(c, pointAccConfig(), c.threads);
    PlanSearchSpace space;
    space.minFleetSize = 1;
    space.maxFleetSize = 8;
    space.base = makeConfig(QueuePolicy::Fifo, false);

    // SLO calibrated off the most provisioned point with 25% slack:
    // feasible inside the range, but the crowd makes it unreachable for
    // an undersized fleet.
    TrafficTelemetry telem;
    const auto trace = materialize(program, &telem);
    SloSpec slo;
    slo.maxP99Cycles =
        static_cast<std::uint64_t>(
            1.25 *
            planner.probe(space.maxFleetSize, space.base, trace).p99Cycles()) +
        1;

    const PlanReport sized = planner.plan(program, slo, space);
    const std::size_t staticN =
        sized.feasible ? sized.chosen.fleetSize : space.maxFleetSize;
    std::printf("traffic: %s %.2f -> %.2f req/Mcycle over %llu Mcycles, "
                "SLO p99 <= %.3f ms, planner fleet %zu (%s)\n",
                program.name.c_str(), telem.basePerMCycle,
                telem.peakPerMCycle,
                static_cast<unsigned long long>(H / 1'000'000),
                toMs(slo.maxP99Cycles), staticN,
                sized.feasible ? "feasible" : "infeasible");

    // (a) The static fleet the planner sized, over the program's
    // materialized trace.
    const SchedulerConfig staticCfg = schedulerConfigFor(space, sized.chosen);
    const std::vector<AcceleratorConfig> fleet(staticN, pointAccConfig());
    const auto &scales = c.model.catalog().bucketScales;
    ServingReport staticRep =
        FleetScheduler(fleet, c.model, scales, staticCfg).run(trace);
    staticRep.traffic = telem;

    // (b) The autoscaler over the same pool, starting from one
    // instance, driven through the *streaming* entry point. The
    // queue-depth thresholds do the steady-state work; the p99 trigger
    // (2x the SLO) catches a crowd the queue bound alone would admit
    // slowly. Spin-up and cooldown are two evaluation periods each —
    // the reactive lag the comparison prices.
    SchedulerConfig autoCfg = staticCfg;
    AutoscalerConfig &ac = autoCfg.autoscaler;
    ac.enabled = true;
    ac.minInstances = 1;
    ac.maxInstances = static_cast<std::uint32_t>(staticN);
    ac.initialInstances = 1;
    ac.evalIntervalCycles = H / 100;
    ac.queueHighDepth = c.smoke ? 4 : 16;
    ac.queueLowDepth = 2;
    ac.p99HighCycles = 2 * slo.maxP99Cycles;
    ac.spinUpCycles = 2 * ac.evalIntervalCycles;
    ac.cooldownCycles = 2 * ac.evalIntervalCycles;
    WorkloadStream stream(program);
    ServingReport autoRep =
        FleetScheduler(fleet, c.model, scales, autoCfg).run(stream);
    autoRep.traffic = stream.telemetry();

    SweepResult res;
    res.rows.push_back(
        makeRow("traffic", staticN, tbase, staticCfg, std::move(staticRep)));
    res.rows.push_back(
        makeRow("traffic", staticN, tbase, staticCfg, std::move(autoRep)));
    for (const Row &row : res.rows)
        printRow(row);
    const ServingReport &st = res.rows[0].report;
    const ServingReport &au = res.rows[1].report;

    // Headline comparison: instance-cycles the autoscaler left
    // unpowered vs keeping the static fleet up for its whole run.
    const auto &as = au.autoscaler;
    const std::uint64_t staticCost =
        static_cast<std::uint64_t>(staticN) * au.horizonCycles;
    const std::int64_t saved = static_cast<std::int64_t>(staticCost) -
                               static_cast<std::int64_t>(as.instanceCycles);
    const bool staticMeetsSlo = meetsSlo(st, slo);
    bool converged = true;
    for (const auto &s : as.timeline.samples)
        if (s.cycle >= H - H / 10 && s.action != 0)
            converged = false;

    bool conserved = true;
    for (const ServingReport *rep : {&st, &au})
        conserved = conserved &&
                    rep->generated == rep->admitted + rep->dropped &&
                    rep->admitted == rep->completed + rep->leftoverQueued &&
                    rep->leftoverQueued == 0;
    const bool accounted = as.evals == as.timeline.samples.size() &&
                           as.instanceCycles <= staticCost &&
                           as.peakProvisioned <= staticN;
    if (c.smoke) {
        res.gate(conserved && accounted && as.evals > 0 && saved >= 0,
                 "traffic smoke: conservation %s, %llu evals, %llu/%llu "
                 "instance-cycles",
                 conserved ? "holds" : "broken",
                 static_cast<unsigned long long>(as.evals),
                 static_cast<unsigned long long>(as.instanceCycles),
                 static_cast<unsigned long long>(staticCost));
    } else {
        res.gate(staticMeetsSlo,
                 "traffic static fleet %zu through the crowd: p99 %.3f ms "
                 "vs SLO %.3f ms",
                 staticN, st.p99Ms(), toMs(slo.maxP99Cycles));
        res.gate(as.scaleUps >= 1 && converged && conserved && accounted,
                 "traffic autoscaler: %llu up / %llu down, peak %u of %zu, "
                 "converged %s, conservation %s",
                 static_cast<unsigned long long>(as.scaleUps),
                 static_cast<unsigned long long>(as.scaleDowns),
                 as.peakProvisioned, staticN, converged ? "yes" : "no",
                 conserved ? "holds" : "broken");
        res.gate(saved > 0,
                 "traffic instance-cycles: autoscaler %llu vs static %llu "
                 "(saved %lld, %.0f%%)",
                 static_cast<unsigned long long>(as.instanceCycles),
                 static_cast<unsigned long long>(staticCost),
                 static_cast<long long>(saved),
                 100.0 * static_cast<double>(saved) /
                     static_cast<double>(staticCost));
    }
    res.envelope = [=, name = program.name](JsonWriter &w) {
        w.key("traffic").beginObject();
        w.field("program", name);
        w.field("slo_p99_cycles", slo.maxP99Cycles);
        w.field("static_fleet_size", static_cast<std::uint64_t>(staticN));
        w.field("static_instance_cycles", staticCost);
        w.field("autoscaler_instance_cycles", as.instanceCycles);
        w.field("instance_cycles_saved", saved);
        w.field("scale_ups", as.scaleUps);
        w.field("scale_downs", as.scaleDowns);
        w.field("static_meets_slo", staticMeetsSlo);
        w.field("converged", converged);
        w.endObject();
    };
    return res;
}

// Sweep 10 (`--sweep faults`, opt-in): fault injection and
// failure-aware serving. Five scenarios on a two-instance fleet at
// 1.25x fleet capacity — the persistent backlog keeps both instances
// busy, so a mid-horizon crash always catches work in flight — then
// the gates described in the header, in this order: (c) extended
// conservation and the goodput bound on every row; observability (the
// scheduled crash caught work in flight and retried it, the stochastic
// process crashed at least once, hedging issued at least one hedge);
// (a) reference byte-identity with an enabled-but-empty program; (b)
// the availability plan — strict in full/quick runs, structural under
// --smoke.
SweepResult
sweepFaults(const Ctx &c)
{
    WorkloadSpec fbase = c.base;
    fbase.horizonCycles =
        c.smoke ? 5'000'000 : (c.quick ? 30'000'000 : 100'000'000);
    fbase.requestsPerMCycle = 2.5 * c.capacityPerMCycle;
    const std::uint64_t H = fbase.horizonCycles;

    RetryPolicy retry;
    retry.enabled = true;
    retry.maxRetries = 3;
    retry.backoffBaseNs = 1'000;

    // At a uniform 1 GHz the arrival horizon in cycles is the fault
    // horizon in ns.
    FaultProgram crash;
    crash.enabled = true;
    crash.horizonNs = 2 * H;
    crash.crashes.push_back(CrashWindow{0, H / 2, H / 4});

    FaultProgram straggle;
    straggle.enabled = true;
    straggle.horizonNs = 2 * H;
    straggle.stragglers.push_back(
        StragglerWindow{0, 3 * H / 10, 3 * H / 10, 2.5});

    FaultProgram mtbf;
    mtbf.enabled = true;
    mtbf.horizonNs = H;
    mtbf.mtbfNs = H / 3;
    mtbf.mttrNs = H / 30;
    mtbf.seed = 11;

    RetryPolicy hedged = retry;
    hedged.hedgeDelayNs = static_cast<std::uint64_t>(8.0 * c.meanCycles);

    const auto scenario = [&fbase](const char *name,
                                   const FaultProgram &program,
                                   const RetryPolicy &rp) {
        Scenario s{name, 2, fbase, makeConfig(QueuePolicy::Fifo, false)};
        s.cfg.faults = program;
        s.cfg.retry = rp;
        return s;
    };
    SweepResult res = runRows(c, {scenario("flt-none", {}, {}),
                                  scenario("flt-crash", crash, retry),
                                  scenario("flt-strag", straggle, {}),
                                  scenario("flt-mtbf", mtbf, retry),
                                  scenario("flt-hedge", crash, hedged)});

    // Gate (a): an *enabled* fault program that materializes no events
    // must leave the fault-aware production engine byte-identical to
    // the frozen cycle-domain reference (which predates faults
    // entirely) — the fault machinery is pay-for-what-you-use on the
    // hot path.
    const SchedulerConfig plainCfg = makeConfig(QueuePolicy::Fifo, false);
    SchedulerConfig emptyCfg = plainCfg;
    emptyCfg.faults.enabled = true; // no windows, no rates
    const bool identical = matchesReference(
        c, {pointAccConfig(), pointAccConfig()}, emptyCfg, plainCfg);

    // Gate (b): availability-aware capacity planning. At 2.2x
    // single-instance load the smallest un-saturated fleet is 3; the
    // SLO is calibrated off that fleet fault-free with 50% slack, so
    // the nominal plan picks it. Replanning with a mid-horizon crash of
    // one instance in the search space must pay for a spare — and the
    // spare must be what lets the fleet hold the SLO through the crash
    // the nominal fleet fails.
    WorkloadSpec pspec = c.base;
    pspec.horizonCycles =
        c.smoke ? 5'000'000 : (c.quick ? 30'000'000 : 80'000'000);
    pspec.requestsPerMCycle = 2.2 * c.capacityPerMCycle;
    const std::uint64_t PH = pspec.horizonCycles;

    const CapacityPlanner planner =
        makePlanner(c, pointAccConfig(), c.threads);
    PlanSearchSpace space;
    space.minFleetSize = 1;
    space.maxFleetSize = 6;
    space.base = makeConfig(QueuePolicy::Fifo, false);

    const auto trace = WorkloadGenerator(pspec).generate();
    SloSpec slo;
    slo.maxP99Cycles =
        static_cast<std::uint64_t>(
            1.5 * planner.probe(3, space.base, trace).p99Cycles()) +
        1;
    const PlanReport nominal = planner.plan(pspec, slo, space);

    PlanSearchSpace availSpace = space;
    availSpace.faults.enabled = true;
    availSpace.faults.horizonNs = 2 * PH;
    availSpace.faults.crashes.push_back(CrashWindow{0, 3 * PH / 10, PH / 2});
    availSpace.retry = retry;
    const PlanReport avail = planner.plan(pspec, slo, availSpace);

    // Re-probe both chosen fleets under the outage, on the same trace:
    // the premium must be what holds the SLO.
    const std::size_t nominalN =
        nominal.feasible ? nominal.chosen.fleetSize : 3;
    const std::size_t availN =
        avail.feasible ? avail.chosen.fleetSize : space.maxFleetSize;
    const SchedulerConfig faultedCfg =
        schedulerConfigFor(availSpace, avail.chosen);
    const ServingReport nominalUnderFault =
        planner.probe(nominalN, faultedCfg, trace);
    const ServingReport availUnderFault =
        planner.probe(availN, faultedCfg, trace);
    const double nominalP99 = nominalUnderFault.p99Ms();
    const double availP99 = availUnderFault.p99Ms();
    const bool bothFeasible = nominal.feasible && avail.feasible;
    const bool nominalFails = !meetsSlo(nominalUnderFault, slo);
    const bool availHolds = meetsSlo(availUnderFault, slo);
    std::printf("faults plan: SLO p99 <= %.3f ms at %.2f req/Mcycle; "
                "nominal fleet %zu (p99 %.3f ms under crash), "
                "availability fleet %zu (p99 %.3f ms under crash)\n",
                toMs(slo.maxP99Cycles), pspec.requestsPerMCycle, nominalN,
                nominalP99, availN, availP99);

    bool conserved = true;
    for (const Row &r : res.rows) {
        const auto &rep = r.report;
        conserved = conserved &&
                    rep.generated == rep.admitted + rep.dropped &&
                    rep.admitted ==
                        rep.completed + rep.failed + rep.leftoverQueued &&
                    rep.goodputRps() <= rep.throughputRps();
    }
    res.gate(conserved,
             "faults conservation (admitted = completed + failed + "
             "leftover) and goodput <= throughput on %zu rows",
             res.rows.size());

    const auto &crashed = res.rows[1].report.faults;
    const auto &strag = res.rows[2].report.faults;
    const auto &random = res.rows[3].report.faults;
    const auto &hedge = res.rows[4].report.faults;
    res.gate(crashed.crashes >= 1 && crashed.inflightFailed >= 1 &&
                 crashed.retryAttempts >= 1 &&
                 strag.stragglerWindows >= 1 && random.crashes >= 1 &&
                 hedge.hedges >= 1,
             "faults observability: crash row %llu crashes / %llu "
             "in-flight kills / %llu retries, straggler row %llu "
             "windows, mtbf row %llu crashes, hedge row %llu hedges",
             static_cast<unsigned long long>(crashed.crashes),
             static_cast<unsigned long long>(crashed.inflightFailed),
             static_cast<unsigned long long>(crashed.retryAttempts),
             static_cast<unsigned long long>(strag.stragglerWindows),
             static_cast<unsigned long long>(random.crashes),
             static_cast<unsigned long long>(hedge.hedges));
    res.gate(identical,
             "faults empty-program byte-identity vs reference engine");
    if (c.smoke)
        res.gate(bothFeasible && availN >= nominalN && availHolds,
                 "faults plan smoke: nominal %zu -> availability %zu, "
                 "availability holds under crash %s",
                 nominalN, availN, availHolds ? "yes" : "no");
    else
        res.gate(bothFeasible && availN > nominalN && nominalFails &&
                     availHolds,
                 "faults availability plan: nominal %zu (p99 %.3f ms under "
                 "crash, %s) vs availability %zu (p99 %.3f ms, %s) against "
                 "SLO %.3f ms",
                 nominalN, nominalP99, nominalFails ? "misses" : "meets",
                 availN, availP99, availHolds ? "meets" : "misses",
                 toMs(slo.maxP99Cycles));
    res.envelope = [=](JsonWriter &w) {
        w.key("faults").beginObject();
        w.field("slo_p99_cycles", slo.maxP99Cycles);
        w.field("nominal_fleet_size", static_cast<std::uint64_t>(nominalN));
        w.field("availability_fleet_size",
                static_cast<std::uint64_t>(availN));
        w.field("nominal_p99_under_fault_ms", nominalP99);
        w.field("availability_p99_under_fault_ms", availP99);
        w.field("both_feasible", bothFeasible);
        w.field("nominal_fails_under_fault", nominalFails);
        w.field("availability_holds_under_fault", availHolds);
        w.endObject();
    };
    return res;
}

// Sweep 11 (`--sweep runahead`, opt-in): run-ahead depth + cost-aware
// hold-vs-dispatch. Two grids. The dispatch trio prices hold-vs-
// dispatch on Poisson single-network traffic just past the amortized
// capacity knee — bursty traffic would deliver batch partners
// simultaneously and make the hold decision vacuous, and a
// mixed-network stream would dilute the weight-reload amortization the
// hold buys. The depth ladder isolates the mapped-output buffer:
// batching off, one instance, FIFO, a queue deep enough that nothing
// drops, so the only effect of a deeper buffer is that maps start
// earlier. Gates: (a) inert-defaults byte-identity against the frozen
// reference engine; (b) the cost-aware policy must dominate *both*
// blind endpoints of the hold spectrum (win throughput or p99 vs
// pure-eager, and again vs pure-hold); (c) the depth ladder must be
// monotone — throughput must not drop and p99 must not rise. --smoke
// keeps (a) and (c) (the monotonicity argument is horizon-independent)
// and relaxes (b) to structural echoes.
SweepResult
sweepRunahead(const Ctx &c)
{
    const std::uint64_t H =
        c.smoke ? 5'000'000 : (c.quick ? 30'000'000 : 100'000'000);

    // Dispatch trio: all-PointNet++-small Poisson arrivals at 1.0x one
    // instance's solo capacity. That network has the fattest
    // weight-reload share of the catalog (~21% of solo service), so a
    // caught batch partner pays best; at the capacity knee the backend
    // alternates between committed backlog (where eager dispatch
    // forfeits amortization a free hold would have caught) and idle
    // spells (where the blind timer queues waits for nothing) — the
    // regime where pricing the decision beats both fixed policies.
    const double ppCycles = soloCycles(c, 1);
    WorkloadSpec trioSpec = c.base;
    trioSpec.horizonCycles = H;
    trioSpec.mix = {{1, 0, 1.0, 0}};
    trioSpec.requestsPerMCycle = 1e6 / ppCycles;
    const auto holdWait = static_cast<std::uint64_t>(2.0 * ppCycles);
    const SchedulerConfig holdCfg = makeConfig(
        QueuePolicy::Fifo, true, OccupancyModel::Pipelined, 2, holdWait);
    SchedulerConfig costCfg = holdCfg;
    costCfg.batcher.costAware = true;
    std::vector<Scenario> scenarios{
        {"ra-eager", 1, trioSpec,
         makeConfig(QueuePolicy::Fifo, true, OccupancyModel::Pipelined, 1,
                    0)},
        {"ra-hold", 1, trioSpec, holdCfg},
        {"ra-cost", 1, trioSpec, costCfg}};

    // Depth ladder: the two-batch stall scenario at fleet 1 under the
    // standard mix. queueDepth is raised so no request drops; with an
    // identical admitted set, a deeper mapped-output buffer can only
    // start maps earlier.
    WorkloadSpec depthSpec = c.base;
    depthSpec.horizonCycles = H;
    depthSpec.requestsPerMCycle = 1.5 * c.capacityPerMCycle;
    for (const std::uint32_t depth : {1u, 2u, 4u}) {
        SchedulerConfig scfg = makeConfig(QueuePolicy::Fifo, false);
        scfg.queueDepth = std::size_t{1} << 20;
        scfg.runAheadDepth = depth;
        scenarios.push_back(
            {"ra-k" + std::to_string(depth), 1, depthSpec, scfg});
    }
    SweepResult res = runRows(c, scenarios);

    // Gate (a): the run-ahead buffer at depth 1 with cost-aware
    // dispatch off is the seed engine.
    SchedulerConfig inertCfg = makeConfig(
        QueuePolicy::Fifo, true, OccupancyModel::Pipelined, 4, holdWait);
    inertCfg.runAheadDepth = 1;
    inertCfg.batcher.costAware = false;
    res.gate(matchesReference(c, {pointAccConfig(), pointAccConfig()},
                              inertCfg, inertCfg),
             "runahead depth-1/cost-off byte-identity vs reference engine");

    const ServingReport &eager = res.rows[0].report;
    const ServingReport &hold = res.rows[1].report;
    const ServingReport &cost = res.rows[2].report;
    res.gate(cost.costAware && cost.costHolds + cost.costDispatches > 0,
             "runahead cost model engaged: %llu holds / %llu dispatches "
             "priced",
             static_cast<unsigned long long>(cost.costHolds),
             static_cast<unsigned long long>(cost.costDispatches));
    if (!c.smoke) {
        const bool beatsEager =
            cost.throughputRps() > eager.throughputRps() ||
            cost.p99Ms() < eager.p99Ms();
        const bool beatsHold = cost.throughputRps() > hold.throughputRps() ||
                               cost.p99Ms() < hold.p99Ms();
        res.gate(beatsEager && beatsHold,
                 "runahead hold-vs-dispatch: cost-aware %.0f r/s / p99 "
                 "%.3f ms vs eager %.0f / %.3f (%s) and vs hold %.0f / "
                 "%.3f (%s)",
                 cost.throughputRps(), cost.p99Ms(), eager.throughputRps(),
                 eager.p99Ms(), beatsEager ? "wins" : "loses",
                 hold.throughputRps(), hold.p99Ms(),
                 beatsHold ? "wins" : "loses");
    }

    const ServingReport *ladder[] = {&res.rows[3].report, &res.rows[4].report,
                                     &res.rows[5].report};
    bool ladderOk = true;
    for (std::size_t i = 0; i < 3; ++i)
        ladderOk = ladderOk && ladder[i]->runAheadDepth == (1u << i) &&
                   ladder[i]->dropRate() == 0.0 &&
                   (i == 0 ||
                    (ladder[i]->throughputRps() >=
                         ladder[i - 1]->throughputRps() &&
                     ladder[i]->p99Ms() <= ladder[i - 1]->p99Ms()));
    res.gate(ladderOk,
             "runahead depth ladder k=1/2/4: thru %.0f/%.0f/%.0f r/s "
             "non-decreasing, p99 %.3f/%.3f/%.3f ms non-increasing, no "
             "drops",
             ladder[0]->throughputRps(), ladder[1]->throughputRps(),
             ladder[2]->throughputRps(), ladder[0]->p99Ms(),
             ladder[1]->p99Ms(), ladder[2]->p99Ms());
    return res;
}

/** One table entry per sweep. */
struct Sweep
{
    const char *name; ///< `--sweep` value
    bool inAll;       ///< run by `--sweep all`; else opt-in
    bool smoke;       ///< accepts `--smoke`
    /** Accelerator classes it profiles (check 0's ceiling). */
    std::uint64_t classes;
    SweepResult (*run)(const Ctx &);
};

// The plan, hetero, traffic, faults and runahead sweeps each run a
// planner search or their own differential engines on top of their
// rows, so they are opt-in rather than part of `all`; CI invokes each
// explicitly. The hetero sweep profiles two more accelerator classes
// (the renamed 2 GHz server and the edge part).
const Sweep kSweeps[] = {
    {"fleet", true, false, 1, sweepFleet},
    {"policy", true, false, 1, sweepPolicy},
    {"batching", true, false, 1, sweepBatching},
    {"pipeline", true, false, 1, sweepPipeline},
    {"wait-for-k", true, false, 1, sweepWaitForK},
    {"cache", true, false, 1, sweepCache},
    {"plan", false, true, 1, sweepPlan},
    {"hetero", false, true, 3, sweepHetero},
    {"traffic", false, true, 1, sweepTraffic},
    {"faults", false, true, 1, sweepFaults},
    {"runahead", false, true, 1, sweepRunahead},
};

/** "a, b or c". */
std::string
orList(const std::vector<std::string> &items)
{
    std::string s;
    for (std::size_t i = 0; i < items.size(); ++i)
        s += (i == 0 ? "" : i + 1 == items.size() ? " or " : ", ") + items[i];
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath = "BENCH_serving.json";
    std::string sweepSel = "all";
    bool quick = false;
    bool smoke = false;
    std::size_t threadsArg = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--json" && hasValue) {
            jsonPath = argv[++i];
        } else if (arg == "--no-json") {
            jsonPath.clear();
        } else if (arg == "--sweep" && hasValue) {
            sweepSel = argv[++i];
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--threads" && hasValue) {
            const char *value = argv[++i];
            char *end = nullptr;
            threadsArg = std::strtoul(value, &end, 10);
            if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
                *end != '\0') {
                std::fprintf(stderr,
                             "error: --threads needs a non-negative "
                             "integer, got '%s'\n",
                             value);
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "error: unknown argument '%s' (expected "
                         "--json <path>, --no-json, --sweep <name>, "
                         "--quick, --smoke, --threads <n>)\n",
                         argv[i]);
            return 2;
        }
    }
    std::size_t poolThreads = 0;
    try {
        poolThreads = ProbeExecutor::resolveThreads(threadsArg);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: --threads: %s\n", e.what());
        return 2;
    }
    std::vector<const Sweep *> selected;
    std::vector<std::string> names, smokeNames;
    for (const Sweep &s : kSweeps) {
        if (sweepSel == s.name || (sweepSel == "all" && s.inAll))
            selected.push_back(&s);
        names.push_back(s.name);
        if (s.smoke)
            smokeNames.push_back(std::string("--sweep ") + s.name);
    }
    names.push_back("all");
    // An unknown sweep name would select nothing, skip every
    // acceptance gate and exit 0 — reject it so a typoed CI invocation
    // cannot silently pass.
    if (selected.empty()) {
        std::fprintf(stderr, "error: unknown --sweep '%s' (expected %s)\n",
                     sweepSel.c_str(), orList(names).c_str());
        return 2;
    }
    if (smoke && (selected.size() != 1 || !selected[0]->smoke)) {
        std::fprintf(stderr, "error: --smoke applies to %s only\n",
                     orList(smokeNames).c_str());
        return 2;
    }

    bench::banner("Serving runtime: fleets of PointAcc under open load",
                  "runtime/ subsystem (beyond the paper)");

    // Catalog: an object-classification network, a hierarchical
    // PointNet++ and a scene-segmentation MinkowskiUNet, each at two
    // cloud-size buckets. Profiling is memoized: at most 6 simulator
    // runs per accelerator class (acceptance check 0).
    ServingCatalog catalog;
    catalog.networks = {pointNet(), pointNetPPClass(),
                        minkowskiUNetIndoor()};
    catalog.bucketScales = {0.05, 0.1};
    const SimServiceModel model(catalog);

    // Scenario executor: every sweep row is a pure function of its
    // (spec, config) inputs, so rows run as tasks and merge back in
    // declaration order — the table and the JSON cannot tell serial
    // from parallel apart. The model's profiling memo is internally
    // synchronized (first profiler wins, everyone reads one value).
    ProbeExecutor pool(poolThreads);
    std::printf("threads: %zu (%s)\n", poolThreads,
                poolThreads == 0 ? "serial, inline"
                                 : "work-stealing pool");

    // Price the mix against one PointAcc to express offered load in
    // fractions of single-instance capacity.
    WorkloadSpec base;
    base.mix = {
        {0, 0, 4.0, 0}, // PointNet, small clouds, bulk of traffic
        {1, 1, 2.0, 0}, // PointNet++, larger objects
        {2, 1, 1.0, 0}, // MinkowskiUNet scenes, the heavy tail
    };
    double meanCycles = 0.0;
    double mapShare = 0.0;
    double totalWeight = 0.0;
    for (const auto &cls : base.mix) {
        const auto p =
            model.profile(pointAccConfig(), cls.networkId, cls.sizeBucket);
        meanCycles += cls.weight * static_cast<double>(p.totalCycles);
        mapShare += cls.weight * static_cast<double>(p.phases().mapCycles);
        totalWeight += cls.weight;
    }
    meanCycles /= totalWeight;
    mapShare /= totalWeight;
    const double capacityPerMCycle = 1e6 / meanCycles; // one instance
    std::printf("mix mean service: %.0f cycles (%.0f%% mapping phase) "
                "-> 1-instance capacity %.2f req/Mcycle\n\n",
                meanCycles, 100.0 * mapShare / meanCycles,
                capacityPerMCycle);
    printHeader();

    // `base` is frozen in the context: every sweep copies it and owns
    // its mutations locally, so no sweep's spec depends on which
    // sweeps ran before it (row-order independence — see the header).
    base.seed = 2026;
    base.horizonCycles = quick ? 100'000'000 : 400'000'000;
    base.arrivals = ArrivalProcess::Poisson;
    const Ctx ctx{model, pool,  threadsArg, poolThreads,
                  quick, smoke, base,       meanCycles,
                  capacityPerMCycle};

    SweepResult run; // every selected sweep's rows and gates, in order
    std::uint64_t classes = 1;
    for (const Sweep *s : selected) {
        SweepResult r = s->run(ctx);
        bench::rule(122);
        run.rows.insert(run.rows.end(), r.rows.begin(), r.rows.end());
        run.gates.insert(run.gates.end(), r.gates.begin(), r.gates.end());
        if (r.envelope)
            run.envelope = std::move(r.envelope);
        classes = std::max(classes, s->classes);
    }

    // Acceptance check 0: profiling is memoized across sweep rows —
    // each (accelerator class, network, bucket) triple runs the real
    // simulator at most once per process, however many rows consumed
    // it, so the distinct-triple ceiling is classes x networks x
    // buckets.
    const std::uint64_t maxTriples =
        classes * static_cast<std::uint64_t>(catalog.networks.size()) *
        static_cast<std::uint64_t>(catalog.bucketScales.size());
    // Planner probes are not rows: a row-less run names no row count.
    const std::string acrossRows =
        run.rows.empty()
            ? ""
            : " across " + std::to_string(run.rows.size()) + " rows";
    SweepResult memo;
    memo.gate(model.profiledRuns() <= maxTriples,
              "profiling memoization: %llu simulator runs for <= %llu "
              "distinct triples%s",
              static_cast<unsigned long long>(model.profiledRuns()),
              static_cast<unsigned long long>(maxTriples),
              acrossRows.c_str());
    bool ok = true;
    for (const std::vector<Gate> *gates : {&memo.gates, &run.gates})
        for (const Gate &g : *gates) {
            ok = ok && g.ok;
            std::printf("%s: %s\n", g.line.c_str(),
                        g.ok ? "OK" : "VIOLATED");
        }

    if (!jsonPath.empty()) {
        std::ofstream jf(jsonPath);
        writeRows(jf, run.rows, run.envelope);
        jf.flush();
        if (!jf.good()) {
            std::fprintf(stderr, "error: could not write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return ok ? 0 : 1;
}
