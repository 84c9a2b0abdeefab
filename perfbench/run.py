#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_measure (the pointacc library from src/ plus the
benchmark's own C++ files, Release) into $CARGO_TARGET_DIR or
.bench_build, runs the workload, checks the canonical-seed digest of
its simulated outputs against perfbench/digests.json, and prints as the
last line of stdout one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end_to_end metrics of
BENCHMARK.json, --trace 1 the per_layer metrics (layers a workload
does not exercise read 0) and writes the run's spans to
<build dir>/traces/. Exits nonzero, printing no result, when the build
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("configuring the benchmark failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_measure",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(build_dir, "perfbench_measure")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)

    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("the workload did not finish within %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        fail("perfbench_measure exited with code %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("perfbench_measure printed no result")
    raw = json.loads(lines[-1])

    attempted = raw["attempted"] + 1
    failed = raw["failed"]
    expected = digests[args.workload]["digest"]
    if raw["canonical_digest"] != expected:
        failed += 1
        print("check failed: canonical digest %s, stored %s" %
              (raw["canonical_digest"], expected), file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    measured = raw[section]
    metrics = {}
    for m in spec[section]:
        got = measured.pop(m["name"], None)
        if got is None:
            if section == "end_to_end":
                fail("workload did not report " + m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s reported in %s, expected %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if measured:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(measured))

    print("workload %s seed %d: digest %s, canonical digest %s" %
          (args.workload, args.seed, raw["digest"], raw["canonical_digest"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
