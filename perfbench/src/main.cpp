/**
 * @file
 * perfbench_measure: runs one benchmark workload and prints its raw
 * outcome as one JSON line (perfbench/run.py turns it into the
 * benchmark's result line).
 *
 *   perfbench_measure --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--trace-out <path>]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

using namespace perfbench;

namespace {

void
printMetrics(const char *key, const std::vector<Metric> &metrics)
{
    std::printf("\"%s\":{", key);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}");
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench_measure --workload "
                 "<accel-suite|serve-overload|serve-steady|plan-cold> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            opt.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--trace-out")
            opt.tracePath = value;
        else
            return usage(("unknown argument " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("arguments come in --flag value pairs");
    if (!(opt.seconds > 0.0))
        return usage("--seconds must be positive");

    Outcome out;
    try {
        if (opt.workload == "accel-suite")
            out = runAccelSuite(opt);
        else if (opt.workload == "serve-overload")
            out = runServe(opt, true);
        else if (opt.workload == "serve-steady")
            out = runServe(opt, false);
        else if (opt.workload == "plan-cold")
            out = runPlanCold(opt);
        else
            return usage(("unknown workload '" + opt.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    for (const std::string &f : out.checks.failedOps())
        std::fprintf(stderr, "check failed: %s\n", f.c_str());

    std::printf("{\"attempted\":%llu,\"failed\":%llu,\"digest\":\"%s\","
                "\"canonical_digest\":\"%s\",",
                static_cast<unsigned long long>(out.checks.attempted()),
                static_cast<unsigned long long>(out.checks.failed()),
                out.digest.c_str(), out.canonicalDigest.c_str());
    printMetrics("end_to_end", out.endToEnd);
    std::printf(",");
    printMetrics("per_layer", out.layers);
    std::printf("}\n");
    return 0;
}
