/**
 * @file
 * Surviving a flash crowd: static peak provisioning vs the reactive
 * autoscaler, on one replayable traffic program.
 *
 *  1. Define a catalog and a mixed streaming workload, then wrap it in
 *     a flash-crowd TrafficProgram: base rate, a 5x spike over 20% of
 *     the horizon, base again.
 *  2. Let the CapacityPlanner size the *static* fleet that holds the
 *     SLO through the spike — the peak-provisioned answer.
 *  3. Serve the same program twice over that instance pool: once with
 *     every instance up for the whole run, once with the autoscaler
 *     chasing the load from a one-instance floor (spin-up latency,
 *     cooldown, graceful drain all priced in).
 *  4. Read the scaling timeline and the bill: instance-cycles saved vs
 *     static provisioning, and what the tail paid for the savings.
 *  5. Dump the autoscaled run's machine-readable report
 *     (writeServingJson: traffic_* + autoscaler_* blocks).
 */

#include <cstdio>
#include <sstream>

#include "nn/zoo.hpp"
#include "runtime/planner.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/traffic.hpp"
#include "runtime/workload.hpp"
#include "sim/accel_config.hpp"

using namespace pointacc;

int
main()
{
    // 1. Catalog, base workload, and the program: steady streaming
    // load that quintuples over [30%, 50%) of the horizon — an event
    // pulls a crowd of AR clients onto the fleet, then releases them.
    ServingCatalog catalog;
    catalog.networks = {pointNet(), miniMinkowskiUNet()};
    catalog.bucketScales = {0.05, 0.1};
    SimServiceModel model(catalog);

    WorkloadSpec base;
    base.seed = 23;
    base.horizonCycles = 40'000'000; // 40 ms of arrivals at 1 GHz
    base.requestsPerMCycle = 12.0;
    base.mix = {
        {0, 0, 3.0, 0, 0, 0.6}, // PointNet objects, stream 0
        {1, 1, 1.0, 0, 1, 0.6}, // segmentation scenes, stream 1
    };

    const TrafficProgram program = flashCrowdProgram(base, 5.0, 0.3, 0.2);
    TrafficTelemetry telem;
    const std::vector<Request> trace = materialize(program, &telem);
    std::printf("program %s: %.1f req/Mcycle base, %.1f at peak, "
                "%llu requests over %llu Mcycles\n",
                program.name.c_str(), telem.basePerMCycle,
                telem.peakPerMCycle,
                static_cast<unsigned long long>(trace.size()),
                static_cast<unsigned long long>(base.horizonCycles /
                                                1'000'000));

    // 2. Size the static fleet: the cheapest instance count that keeps
    // p99 under 4 ms *through the crowd* (the planner probes the whole
    // program, so the answer is peak-provisioned by construction).
    SloSpec slo;
    slo.maxP99Cycles = 4'000'000;

    PlanSearchSpace space;
    space.minFleetSize = 1;
    space.maxFleetSize = 8;
    space.base.queueDepth = 512;

    CapacityPlanner planner(pointAccConfig(), model,
                            catalog.bucketScales);
    const PlanReport sized = planner.plan(program, slo, space);
    if (!sized.feasible) {
        std::printf("no fleet in [1, %zu] holds the SLO through the "
                    "crowd\n", space.maxFleetSize);
        return 1;
    }
    const std::size_t staticN = sized.chosen.fleetSize;
    std::printf("planner: %zu x %s holds p99 <= %.1f ms through the "
                "crowd (%llu probes)\n",
                staticN, pointAccConfig().name.c_str(),
                static_cast<double>(slo.maxP99Cycles) / 1e6,
                static_cast<unsigned long long>(sized.probesSpent));

    const std::vector<AcceleratorConfig> pool(staticN, pointAccConfig());

    // 3a. Static provisioning: every instance powered for the whole
    // run, served from the materialized trace.
    FleetScheduler staticSched(pool, model, catalog.bucketScales,
                               space.base);
    ServingReport staticRep = staticSched.run(trace);
    staticRep.traffic = telem;

    // 3b. The autoscaler over the same pool, from a one-instance
    // floor, driven through the streaming entry point. Spin-up and
    // cooldown are two evaluation periods each — the reactive lag the
    // comparison prices.
    SchedulerConfig autoCfg = space.base;
    autoCfg.autoscaler.enabled = true;
    autoCfg.autoscaler.minInstances = 1;
    autoCfg.autoscaler.maxInstances = static_cast<std::uint32_t>(staticN);
    autoCfg.autoscaler.initialInstances = 1;
    autoCfg.autoscaler.evalIntervalCycles = base.horizonCycles / 100;
    autoCfg.autoscaler.queueHighDepth = 16;
    autoCfg.autoscaler.queueLowDepth = 2;
    autoCfg.autoscaler.p99HighCycles = 2 * slo.maxP99Cycles;
    autoCfg.autoscaler.spinUpCycles =
        2 * autoCfg.autoscaler.evalIntervalCycles;
    autoCfg.autoscaler.cooldownCycles =
        2 * autoCfg.autoscaler.evalIntervalCycles;

    FleetScheduler autoSched(pool, model, catalog.bucketScales, autoCfg);
    WorkloadStream stream(program);
    ServingReport autoRep = autoSched.run(stream);
    autoRep.traffic = stream.telemetry();

    // 4. The scaling timeline — the closed loop, plottable — and the
    // bill. instance_cycles integrates powered instances over the run
    // (spin-up and drain included), so static cost minus it is the
    // exact saving reactive scaling bought.
    std::printf("\nscaling timeline (eval every %llu Kcycles):\n",
                static_cast<unsigned long long>(
                    autoCfg.autoscaler.evalIntervalCycles / 1'000));
    for (const auto &s : autoRep.autoscaler.timeline.samples) {
        if (s.action == 0)
            continue; // print the decisions, not every hold
        std::printf("  cycle %9llu  queue %3llu  window p99 %7.2f "
                    "Mcycles  -> %s to %u\n",
                    static_cast<unsigned long long>(s.cycle),
                    static_cast<unsigned long long>(s.queueDepth),
                    static_cast<double>(s.windowP99Cycles) / 1e6,
                    s.action > 0 ? "scale UP  " : "scale DOWN",
                    s.provisioned);
    }

    const std::uint64_t staticCost =
        static_cast<std::uint64_t>(staticN) * autoRep.horizonCycles;
    const std::uint64_t autoCost = autoRep.autoscaler.instanceCycles;
    std::printf("\n%-18s p99 %6.2f ms  drops %4llu  cost %6llu "
                "Minstance-cycles\n",
                "static fleet:", staticRep.p99Ms(),
                static_cast<unsigned long long>(staticRep.dropped),
                static_cast<unsigned long long>(staticCost / 1'000'000));
    std::printf("%-18s p99 %6.2f ms  drops %4llu  cost %6llu "
                "Minstance-cycles  (%.0f%% of static; peak %u, "
                "%llu drained batches)\n",
                "autoscaled:", autoRep.p99Ms(),
                static_cast<unsigned long long>(autoRep.dropped),
                static_cast<unsigned long long>(autoCost / 1'000'000),
                100.0 * static_cast<double>(autoCost) /
                    static_cast<double>(staticCost),
                autoRep.autoscaler.peakProvisioned,
                static_cast<unsigned long long>(
                    autoRep.autoscaler.drainedBatches));

    // 5. Machine-readable report of the autoscaled run: the traffic_*
    // and autoscaler_* blocks (incl. the full timeline) ride along.
    std::ostringstream json;
    writeServingJson(json, autoRep);
    std::printf("\nJSON: %s", json.str().c_str());
    return 0;
}
