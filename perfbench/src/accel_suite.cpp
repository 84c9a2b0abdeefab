/**
 * @file
 * Workload `accel-suite`: the paper's Fig. 13 workload. Every network
 * of allBenchmarks() runs on Accelerator(pointAccConfig()) over its
 * bench::benchCloud, in repeated passes. Nearly all host time is in
 * datasets/mapping/nn/sim; none is in runtime.
 *
 * Each network runs over three bench clouds (frames) per seed: the
 * outdoor MinkowskiUNet's latency alone moves by up to 20% from one
 * generated scene to the next, and three frames keep the seed-to-seed
 * spread of the suite's totals inside the benchmark's bounds.
 */

#include <sstream>

#include "bench_util.hpp"
#include "harness.hpp"
#include "network_layers.hpp"
#include "nn/zoo.hpp"
#include "sim/accelerator.hpp"
#include "sim/report.hpp"

namespace perfbench {

using namespace pointacc;

namespace {

constexpr std::uint64_t kFrames = 3;

/** The suite's cases: every network over `frames` bench clouds. Frame
 *  0 of seed 0 is the figure benches' own bench cloud. */
std::vector<NetCase>
makeSuite(std::uint64_t seed, std::uint64_t frames, Tracer &tracer)
{
    std::vector<NetCase> cases;
    for (const Network &net : allBenchmarks())
        for (std::uint64_t f = 0; f < frames; ++f) {
            ScopedSpan span(tracer, "datasets.generate", seed);
            cases.push_back(
                {net, bench::benchCloud(net, 20211018 + kFrames * seed + f)});
        }
    return cases;
}

std::string
resultBytes(const RunResult &r)
{
    std::ostringstream os;
    writeJson(os, r);
    return os.str();
}

/** Simulated outputs of one pass, one serialized RunResult per case. */
std::vector<std::string>
simulatePass(const Accelerator &accel, const std::vector<NetCase> &cases,
             std::vector<RunResult> *results = nullptr)
{
    std::vector<std::string> bytes;
    for (const NetCase &c : cases) {
        const RunResult r = accel.run(c.net, c.cloud);
        bytes.push_back(resultBytes(r));
        if (results != nullptr)
            results->push_back(r);
    }
    return bytes;
}

std::string
digestOf(const std::vector<std::string> &bytes)
{
    Digest d;
    for (const std::string &b : bytes)
        d.add(b);
    return d.hex();
}

/**
 * Timed passes for `seconds` (at least `min_passes`): per-case host
 * seconds of every run, each run's output checked against the
 * reference pass.
 */
std::vector<std::vector<double>>
timedPasses(const Accelerator &accel, const std::vector<NetCase> &cases,
            const std::vector<std::string> &expected, double seconds,
            std::size_t min_passes, Tracer &tracer, Checks &checks)
{
    std::vector<std::vector<double>> perCase(cases.size());
    std::uint64_t pass = 0;
    repeatFor(seconds, min_passes, [&] {
        ScopedSpan passSpan(tracer, "accel.pass", pass);
        double passS = 0.0;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const double t0 = threadCpuSeconds();
            RunResult r;
            {
                ScopedSpan span(tracer, "sim.run", pass);
                r = accel.run(cases[i].net, cases[i].cloud);
            }
            perCase[i].push_back(threadCpuSeconds() - t0);
            passS += perCase[i].back();
            checks.expect(resultBytes(r) == expected[i],
                          "Accelerator::run not repeatable on " +
                              cases[i].net.notation);
        }
        ++pass;
        return passS;
    });
    return perCase;
}

/** Host seconds of one pass: the sum of per-case fastest runs. */
double
passSeconds(const std::vector<std::vector<double>> &perCase)
{
    double s = 0.0;
    for (const auto &samples : perCase)
        s += fastest(samples);
    return s;
}

} // namespace

Outcome
runAccelSuite(const Options &opt)
{
    Outcome out;
    Tracer tracer(opt.trace);

    // Set-up: the suite's clouds, generated kSetupReps times.
    std::vector<NetCase> cases;
    const double setupS = medianCpuSeconds(kSetupReps, [&] {
        cases = makeSuite(opt.seed, kFrames, tracer);
    });
    const double generateMs =
        tracer.totalMs("datasets.generate") / kSetupReps;

    const Accelerator accel(pointAccConfig());
    std::vector<RunResult> results;
    const std::vector<std::string> expected =
        simulatePass(accel, cases, &results);
    out.digest = digestOf(expected);

    // Canonical-seed digest (one frame per network): the stored
    // fingerprint of the simulator.
    Tracer off(false);
    out.canonicalDigest =
        digestOf(simulatePass(accel, makeSuite(kCanonicalSeed, 1, off)));

    checkKernelMaps(cases, out.checks);

    double modelLatencyMs = 0.0;
    double modelEnergyMj = 0.0;
    for (const RunResult &r : results) {
        modelLatencyMs += r.latencyMs();
        modelEnergyMj += r.energyMJ();
    }
    const double runs = static_cast<double>(cases.size());

    if (!opt.trace) {
        const auto perCase = timedPasses(accel, cases, expected,
                                         opt.seconds, 3, tracer, out.checks);
        out.endToEnd = {
            {"setup_s", setupS, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"host_ops_per_s", runs / passSeconds(perCase), "1/s"},
            {"model_latency_ms", modelLatencyMs, "ms"},
            {"model_throughput_per_s", runs * 1e3 / modelLatencyMs, "1/s"},
        };
        return out;
    }

    // Traced run: untraced and traced passes alternate (overhead), then
    // the per-layer ledger.
    Tracer quiet(false);
    std::vector<double> untracedS, tracedS;
    const auto start = Clock::now();
    while (untracedS.size() < 2 || secondsSince(start) < opt.seconds / 2) {
        untracedS.push_back(passSeconds(
            timedPasses(accel, cases, expected, 0.0, 1, quiet, out.checks)));
        tracedS.push_back(passSeconds(
            timedPasses(accel, cases, expected, 0.0, 1, tracer, out.checks)));
    }
    const double untraced = median(untracedS);
    const double traced = median(tracedS);

    out.layers.push_back({"datasets.generate_ms", generateMs, "ms"});
    measureNetworkLayers(cases, 3, tracer, out.layers, out.checks);
    out.layers.push_back({"sim.model_energy_mj", modelEnergyMj, "mJ"});
    out.layers.push_back(
        {"trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%"});
    out.layers.push_back(
        {"trace.spans", static_cast<double>(tracer.size()), "count"});
    if (!opt.tracePath.empty())
        tracer.write(opt.tracePath);
    return out;
}

} // namespace perfbench
