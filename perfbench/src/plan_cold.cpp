/**
 * @file
 * Workload `plan-cold`: one CapacityPlanner::plan over a fresh
 * SimServiceModel per repetition, so cold profiling runs real
 * sim::Accelerator jobs — the wall time of a full capacity plan. The
 * only workload that exercises runtime.planner, runtime.executor and
 * SimServiceModel::profile.
 *
 * Catalog: PointNet, PointNet++ (c) and MinkowskiUNet (i), each at two
 * cloud-size buckets; the traffic mix draws all six classes, so a cold
 * plan profiles six (network, bucket) pairs. Trace: 10^5 Poisson
 * requests, every class a stream repeating half its frames. Grid:
 * fleet 1..10 x {FIFO, SJF} x {no batching, wait-for-4} = 40 points,
 * searched with PlannerConfig::threads = 2. The SLO (p99 <= 4.5 ms)
 * sits between fleet 2 (5.4-6.2 ms) and fleet 3 (3.3-3.5 ms) without
 * batching, and below every wait-for-4 point (>= 5.4 ms), so the pass
 * pattern, the pick and the probe count do not flip with the seed.
 */

#include <sstream>

#include "datasets/synthetic.hpp"
#include "harness.hpp"
#include "network_layers.hpp"
#include "nn/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/planner.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/workload.hpp"
#include "sim/accel_config.hpp"

namespace perfbench {

using namespace pointacc;

namespace {

constexpr std::uint64_t kRequests = 100'000;
constexpr double kRequestsPerMCycle = 2.5;
constexpr std::uint64_t kSloP99Ns = 4'500'000;
constexpr std::size_t kPlannerThreads = 2;

struct PlanInputs
{
    ServingCatalog catalog;
    WorkloadSpec spec;
    SloSpec slo;
    PlanSearchSpace space;
    /** The spec's trace, for direct probes. */
    std::vector<Request> trace;
    /** The catalog's profiling clouds (network x bucket). */
    std::vector<NetCase> cases;
};

PlanInputs
makeInputs(std::uint64_t seed, Tracer &tracer)
{
    PlanInputs in;
    in.catalog.networks = {pointNet(), pointNetPPClass(),
                           minkowskiUNetIndoor()};
    in.catalog.bucketScales = {0.05, 0.1};
    in.catalog.cloudSeed = 20211018 + seed;
    for (const Network &net : in.catalog.networks)
        for (const double scale : in.catalog.bucketScales) {
            ScopedSpan span(tracer, "datasets.generate", seed);
            in.cases.push_back(
                {net, generate(net.dataset, in.catalog.cloudSeed, scale)});
        }

    WorkloadSpec &w = in.spec;
    w.seed = 2026 + seed;
    w.mix = {{0, 0, 3.0, 0, 0, 0.5}, {0, 1, 1.0, 0, 0, 0.5},
             {1, 0, 1.0, 0, 1, 0.5}, {1, 1, 1.0, 0, 1, 0.5},
             {2, 0, 0.5, 0, 2, 0.5}, {2, 1, 0.5, 0, 2, 0.5}};
    w.requestsPerMCycle = kRequestsPerMCycle;
    w.horizonCycles = static_cast<std::uint64_t>(
        static_cast<double>(kRequests) * 1e6 / kRequestsPerMCycle);
    w.arrivals = ArrivalProcess::Poisson;
    in.trace = WorkloadGenerator(w).generate();

    in.slo.maxP99Cycles = kSloP99Ns;

    PlanSearchSpace &s = in.space;
    s.minFleetSize = 1;
    s.maxFleetSize = 10;
    s.policies = {QueuePolicy::Fifo, QueuePolicy::Sjf};
    BatcherAxisPoint waitForK;
    waitForK.enabled = true;
    waitForK.targetK = 4;
    waitForK.maxWaitCycles = 200'000;
    s.batchers = {BatcherAxisPoint{}, waitForK};
    s.base.queueDepth = 256;
    return in;
}

std::string
planBytes(const PlanReport &r)
{
    std::ostringstream os;
    writePlanJson(os, r);
    return os.str();
}

/** One cold plan: a fresh service model, so every profile simulates. */
PlanReport
coldPlan(const PlanInputs &in, std::size_t threads,
         std::uint64_t *profiled_runs = nullptr)
{
    const SimServiceModel model(in.catalog);
    PlannerConfig pcfg;
    pcfg.threads = threads;
    const CapacityPlanner planner(pointAccConfig(), model,
                                  in.catalog.bucketScales, pcfg);
    PlanReport r = planner.plan(in.spec, in.slo, in.space);
    if (profiled_runs != nullptr)
        *profiled_runs = model.profiledRuns();
    return r;
}

} // namespace

Outcome
runPlanCold(const Options &opt)
{
    Outcome out;
    Tracer tracer(opt.trace);

    PlanInputs in;
    const double setupS = medianCpuSeconds(
        kSetupReps, [&] { in = makeInputs(opt.seed, tracer); });
    const double generateMs =
        tracer.totalMs("datasets.generate") / kSetupReps;

    // Reference: the serial plan. Every timed 2-thread plan must
    // serialize to the same bytes.
    const PlanReport serial = coldPlan(in, 1);
    const std::string serialBytes = planBytes(serial);
    Digest digest;
    digest.add(serialBytes);
    out.digest = digest.hex();
    out.checks.expect(serial.feasible, "plan infeasible");
    if (opt.seed == kCanonicalSeed) {
        out.canonicalDigest = out.digest;
    } else {
        Tracer off(false);
        Digest d;
        d.add(planBytes(coldPlan(makeInputs(kCanonicalSeed, off), 1)));
        out.canonicalDigest = d.hex();
    }

    std::uint64_t profiledRuns = 0;
    const auto planOnce = [&](Tracer &t, std::uint64_t op) {
        PlanReport r;
        const auto t0 = Clock::now();
        {
            ScopedSpan span(t, "planner.plan", op);
            r = coldPlan(in, kPlannerThreads, &profiledRuns);
        }
        const double seconds = secondsSince(t0);
        out.checks.expect(planBytes(r) == serialBytes,
                          "2-thread plan differs from the serial plan");
        out.checks.expect(profiledRuns == in.cases.size(),
                          "cold plan did not profile each class once");
        return seconds;
    };
    const double chosenP99Ms = serial.chosen.p99Cycles / 1e6;

    Tracer quiet(false);
    std::uint64_t op = 0;
    if (!opt.trace) {
        const std::vector<double> planS = repeatFor(
            opt.seconds, 3, [&] { return planOnce(quiet, op++); });
        out.endToEnd = {
            {"setup_s", setupS, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"host_ops_per_s", 1.0 / fastest(planS), "1/s"},
            {"model_latency_ms", chosenP99Ms, "ms"},
            {"model_throughput_per_s", serial.chosen.throughputRps, "1/s"},
        };
        return out;
    }

    // Traced run: untraced and traced plans alternate (overhead), then
    // the per-layer ledger.
    std::vector<double> untracedS, tracedS;
    const auto start = Clock::now();
    while (untracedS.size() < 2 || secondsSince(start) < opt.seconds / 2) {
        untracedS.push_back(planOnce(quiet, op++));
        tracedS.push_back(planOnce(tracer, op++));
    }

    // runtime.service: cold profiles of every class, then warm lookups.
    const SimServiceModel model(in.catalog);
    const AcceleratorConfig cfg = pointAccConfig();
    const auto profileAll = [&] {
        for (std::uint32_t n = 0; n < in.catalog.networks.size(); ++n)
            for (std::uint32_t b = 0; b < in.catalog.bucketScales.size();
                 ++b)
                model.profile(cfg, n, b);
    };
    {
        ScopedSpan span(tracer, "service.profile_cold", op);
        profileAll();
    }
    constexpr int kWarmRounds = 2000;
    {
        ScopedSpan span(tracer, "service.profile_warm", op);
        for (int i = 0; i < kWarmRounds; ++i)
            profileAll();
    }
    const double profiles =
        static_cast<double>(kWarmRounds * in.cases.size());

    // runtime.planner: direct probes of the chosen configuration.
    const CapacityPlanner planner(pointAccConfig(), model,
                                  in.catalog.bucketScales);
    const SchedulerConfig chosenCfg =
        schedulerConfigFor(in.space, serial.chosen);
    const double probeS = medianSeconds(5, [&] {
        ScopedSpan span(tracer, "planner.probe", op);
        const ServingReport r =
            planner.probe(serial.chosen.fleetSize, chosenCfg, in.trace);
        out.checks.expect(r.p99Cycles() == serial.chosen.p99Cycles &&
                              meetsSlo(r, in.slo),
                          "direct probe disagrees with the plan's pick");
    });

    // runtime.executor: the plan's probe log replayed as executor
    // tasks; every replayed probe must reproduce its logged p99.
    ProbeExecutor pool(kPlannerThreads);
    std::vector<std::function<double()>> tasks;
    for (const PlanProbe &p : serial.probes)
        tasks.push_back([&, p] {
            return planner
                .probe(p.fleetSize, schedulerConfigFor(in.space, p),
                       in.trace)
                .p99Cycles();
        });
    std::vector<double> replayed;
    {
        ScopedSpan span(tracer, "executor.replay", op);
        replayed = pool.map(std::move(tasks));
    }
    for (std::size_t i = 0; i < replayed.size(); ++i)
        out.checks.expect(replayed[i] == serial.probes[i].p99Cycles,
                          "executor replay differs from the probe log");

    out.layers.push_back({"datasets.generate_ms", generateMs, "ms"});
    measureNetworkLayers(in.cases, 3, tracer, out.layers, out.checks);
    out.layers.insert(
        out.layers.end(),
        {
            {"service.profile_cold_ms",
             tracer.totalMs("service.profile_cold"), "ms"},
            {"service.profile_warm_ns",
             tracer.totalMs("service.profile_warm") * 1e6 / profiles, "ns"},
            {"service.profiled_runs", static_cast<double>(profiledRuns),
             "count"},
            {"planner.probe_ms_p50", probeS * 1e3, "ms"},
            {"planner.model_cost", serial.chosen.cost, "count"},
            {"planner.model_probes",
             static_cast<double>(serial.probesSpent), "count"},
            {"executor.executed", static_cast<double>(pool.executed()),
             "count"},
            {"executor.stolen", static_cast<double>(pool.stolen()),
             "count"},
            {"trace.overhead_pct",
             100.0 * (median(tracedS) - median(untracedS)) /
                 median(untracedS),
             "%"},
            {"trace.spans", static_cast<double>(tracer.size()), "count"},
        });
    if (!opt.tracePath.empty())
        tracer.write(opt.tracePath);
    return out;
}

} // namespace perfbench
