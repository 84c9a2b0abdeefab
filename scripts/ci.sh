#!/usr/bin/env bash
# CI entry point: configure + build + test, with warnings-as-errors on
# the serving-runtime subsystem (src/runtime/ is new code held to a
# stricter bar than the seed sources), the Release-only scale tier and
# simulator-performance floor gate (bench_simperf), one-run
# accel-suite, serve-steady, serve-overload and plan-cold smokes of the
# repository benchmark (perfbench; accel-suite is the only stage that
# cross-checks sortKernelMap against hashKernelMap on every network's
# clouds and checks the simulator's canonical digest), the capacity-
# planner gate (bench_serving --sweep plan: planner pick must equal
# exhaustive search with strictly fewer probes), the heterogeneous
# lattice gate (bench_serving --sweep hetero: watt-budgeted server +
# edge composition plan vs the exhaustive lattice, plus uniform-1GHz
# mixed-fleet byte-identity with the frozen cycle-domain engine), the
# closed-loop traffic gate (bench_serving --sweep traffic: static
# plan vs reactive autoscaler over a flash-crowd program), the fault
# injection gate (bench_serving --sweep faults: crash/straggler/
# retry/hedge scenarios, empty-program byte-identity with the frozen
# reference, extended conservation, and an availability plan whose
# spare rides out a crash the nominal fleet fails), the run-ahead gate
# (bench_serving --sweep runahead: cost-aware hold-vs-dispatch must
# dominate pure-eager and pure-hold, the k=1/2/4 depth ladder must be
# monotone, and depth-1/cost-off output must be byte-identical to the
# frozen reference), a
# schema-doc check that
# keeps docs/SERVING_JSON.md in lockstep with writeServingJson and
# writePlanJson, followed by an ASan+UBSan build that re-runs the
# runtime test suites (the event loop and the property/fuzz sweeps are
# where lifetime/overflow bugs would hide), the map-cache bench sweep,
# a sanitized 10^5-request smoke of the discrete-event core, 2-probe
# planner, hetero-lattice, traffic/autoscaler, fault-injection and
# run-ahead smokes, and finally a
# TSan build that runs the executor unit suite, the sharded property
# sweeps and a threaded hetero-lattice smoke with a 4-worker pool (the
# only stage that exercises real thread interleavings — Release gates
# above are also routed through --threads 4, but their byte-identity
# gates would mask a data race that TSan catches directly).
#
# The Release gates pass --threads 4 everywhere the executor has a
# consumer (bench rows, planner speculation, sharded simperf tier,
# property seed loops): every byte-identity gate then pins parallel
# output to the serial reference on every CI run.
# Suitable as a GitHub Actions step:
#
#   - name: Build and test
#     run: ./scripts/ci.sh
#
# Environment:
#   BUILD_DIR       build tree location            (default: build-ci)
#   SAN_BUILD_DIR   sanitizer build tree location  (default: build-asan)
#   TSAN_BUILD_DIR  TSan build tree location       (default: build-tsan)
#   JOBS            parallel build jobs            (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-ci}"
SAN_BUILD_DIR="${SAN_BUILD_DIR:-build-asan}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DPOINTACC_WERROR=ON

cmake --build "${BUILD_DIR}" -j "${JOBS}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# Serving-runtime acceptance: p99 latency must not increase with fleet
# size, the two-stage pipeline must beat monolithic occupancy at equal
# fleet size, the kernel-map cache must strictly improve p99 or
# throughput at reuse >= 0.5, and profiling must stay memoized across
# rows (the bench exits non-zero on violation). --threads 4 routes the
# sweep rows through the work-stealing pool; declaration-order merge
# keeps the JSON byte-identical to a serial run.
"${BUILD_DIR}/bench_serving" --threads 4 \
    --json "${BUILD_DIR}/BENCH_serving.json"

# Release-stage scale tier: 10^5-request property sweeps (conservation,
# determinism, byte-identity with the preserved seed engine) that the
# quick ctest pass skips; the seed loops shard across 4 workers.
"${BUILD_DIR}/test_runtime_properties" --scale --threads 4

# Simulator-performance gate (Release, -O2/-O3 -DNDEBUG): the O(log n)
# discrete-event core must clear the stored requests-per-second floor
# on the anchor row (10^6 requests, fleet 16), beat the preserved seed
# engine >= 10x, and match it byte-identically on a shared trace. With
# --threads 4 the sharded tier (fleet 256, 10^7 requests) also runs:
# its merge-determinism gate always applies, and its multi-thread
# requests-per-second floor gates on 4+-core runners. See
# docs/PERFORMANCE.md for the floor-update procedure.
"${BUILD_DIR}/bench_simperf" --quick --threads 4 \
    --json "${BUILD_DIR}/BENCH_simperf.json"

# Repository-benchmark smoke of the simulator (Release): one
# accel-suite run (all 8 benchmark networks on their bench clouds)
# must report "correct": true, which covers the canonical digest of
# the simulated outputs against perfbench/digests.json, byte-identical
# repeats, and sortKernelMap == hashKernelMap on every cloud the
# sparse-convolution networks map.
echo "== perfbench accel-suite smoke =="
python3 perfbench/run.py --workload accel-suite --seed 0 --seconds 1 \
    --trace 0 | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
print("perfbench accel-suite correct:", result["correct"])
sys.exit(0 if result["correct"] is True else 1)'

# Repository-benchmark smoke (Release): one serve-steady run of
# perfbench (10^6 bursty EDF requests through the 4096-entry map
# cache, run-ahead 2) must report "correct": true, which covers its
# canonical digest against perfbench/digests.json, request
# conservation and byte-identical repeats.
echo "== perfbench serve-steady smoke =="
python3 perfbench/run.py --workload serve-steady --seed 0 --seconds 1 \
    --trace 0 | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
print("perfbench serve-steady correct:", result["correct"])
sys.exit(0 if result["correct"] is True else 1)'

# Repository-benchmark smoke of the FIFO overload path: one
# serve-overload run (10^6 Poisson requests at 2.5x capacity, the
# queue held 4096 deep) must report "correct": true; besides the
# digest, conservation and repeat checks, its 10^5-request prefix must
# serve byte-identically to the frozen reference engine
# (runServingReference), which pins the admission queue's class-ring
# pruning and batch formation.
echo "== perfbench serve-overload smoke =="
python3 perfbench/run.py --workload serve-overload --seed 0 --seconds 1 \
    --trace 0 | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
print("perfbench serve-overload correct:", result["correct"])
sys.exit(0 if result["correct"] is True else 1)'

# Repository-benchmark smoke of the planner -> scheduler path: one
# plan-cold run (a full capacity plan over a 40-point grid on a fresh
# SimServiceModel, 2 threads) must report "correct": true, which
# requires the 2-thread PlanReport to equal the serial one besides the
# canonical digest. About 13 s on a warm build (4 cores).
echo "== perfbench plan-cold smoke =="
python3 perfbench/run.py --workload plan-cold --seed 0 --seconds 1 \
    --trace 0 | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
print("perfbench plan-cold correct:", result["correct"])
sys.exit(0 if result["correct"] is True else 1)'

# Opt-in sweep gates, one invocation and one JSON each (`all` does not
# include them). --threads 4 turns on speculative probing and pooled
# rows; every byte-identity gate then pins parallel output to serial.
#  - plan: the planner's pick on a quick grid must equal the
#    exhaustive-search optimum with strictly fewer probes (within the
#    probe budget), and a serial re-plan must give byte-identical plan
#    JSON.
#  - hetero: a watt-budgeted server + edge composition plan. The
#    budget must bind, the lattice pick must equal the exhaustive
#    lattice optimum with strictly fewer probes, the plan must equal a
#    serial re-plan byte for byte, and a mixed-class fleet at uniform
#    1 GHz must serve byte-identically to the frozen cycle-domain
#    reference engine (the ns-axis identity gate).
#  - traffic: a static plan vs the reactive autoscaler over a
#    flash-crowd program. The static fleet must hold the SLO through
#    the spike; the autoscaler must scale, converge after the crowd
#    passes, conserve requests and save instance-cycles. (Its rows
#    are independent of the thread count: the quick JSON is identical
#    serial and at --threads 4.)
#  - faults: crash / straggler / MTBF / hedged scenarios with retries,
#    empty-program byte-identity with the frozen reference, extended
#    conservation (admitted = completed + failed + leftover, goodput
#    <= throughput) on every row, and the availability plan: a
#    mid-horizon crash in the search space must buy a spare, the
#    nominal fleet must miss the SLO under that crash, and the
#    availability fleet must hold it.
#  - runahead: cost-aware hold-vs-dispatch must dominate pure-eager
#    and pure-hold at the capacity knee, the k=1/2/4 mapped-output
#    buffer ladder must be monotone, and depth 1 with pricing off must
#    serve byte-identically to the frozen reference engine.
for sweep in plan hetero traffic faults runahead; do
    "${BUILD_DIR}/bench_serving" --sweep "${sweep}" --quick --threads 4 \
        --json "${BUILD_DIR}/BENCH_serving_${sweep}.json"
done

# Argument hygiene: a typoed flag must fail the run with exit 2, never
# silently run the default sweeps and pass.
rc=0; "${BUILD_DIR}/bench_serving" --bogus 2>/dev/null || rc=$?
[ "${rc}" -eq 2 ] || { echo "error: --bogus exited ${rc}, not 2"; exit 1; }

# Schema-doc check: every JSON key writeServingJson and writePlanJson
# emit must be documented (in backticks) in docs/SERVING_JSON.md, so
# the published schemas can never silently drift from the writers.
echo "== serving/plan JSON schema doc check =="
missing=0
for key in $(sed -nE 's/.*w\.(field|key)\("([a-z0-9_]+)".*/\2/p' \
                 src/runtime/serving_stats.cpp \
                 src/runtime/planner.cpp | sort -u); do
    if ! grep -q "\`${key}\`" docs/SERVING_JSON.md; then
        echo "error: JSON key '${key}' is missing from docs/SERVING_JSON.md"
        missing=1
    fi
done
if [ "${missing}" -ne 0 ]; then
    exit 1
fi
echo "all writeServingJson/writePlanJson keys documented"

# ASan+UBSan pass over the runtime test suites plus the map-cache
# bench sweep. Examples and the remaining benchmarks are skipped
# (sanitized simulator runs are slow and the simulator itself is
# covered by its own suites); bench_serving builds so the cache sweep
# runs sanitized (--quick bounds the horizon, --sweep cache skips the
# sweeps whose gates the unsanitized run already enforced);
# warnings-as-errors stays on for src/runtime/.
cmake -B "${SAN_BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPOINTACC_SANITIZE=ON \
    -DPOINTACC_WERROR=ON \
    -DPOINTACC_BUILD_BENCH=ON \
    -DPOINTACC_BUILD_EXAMPLES=OFF

cmake --build "${SAN_BUILD_DIR}" -j "${JOBS}" \
    --target test_runtime test_runtime_properties test_report_golden \
             test_executor bench_serving bench_simperf

ctest --test-dir "${SAN_BUILD_DIR}" --output-on-failure -j "${JOBS}" \
    --no-tests=error \
    -R 'test_runtime|test_runtime_properties|test_report_golden|test_executor'

"${SAN_BUILD_DIR}/bench_serving" --sweep cache --quick --no-json

# Sanitized 10^5-request smoke of the discrete-event core: one
# 10^5-request row through the heap loop, indexed queue and streaming
# generator under ASan+UBSan. --smoke applies no wall-clock floor
# (a sanitized floor would measure the sanitizer, not the simulator).
"${SAN_BUILD_DIR}/bench_simperf" --smoke --no-json

# Sanitized smokes of the five opt-in sweeps under ASan+UBSan: each
# shrinks its sweep to structural checks (the unsanitized gates above
# enforced search quality, SLO and dominance outcomes).
#  - plan: a 1-combo, 2-size exhaustive micro-grid through the full
#    plan/probe/JSON path;
#  - hetero: a tiny two-kind lattice through the exhaustive lattice
#    search, the composition JSON and the 1 GHz identity check;
#  - traffic: a short flash-crowd program through planning, the
#    piecewise-rate stream, scaling events and graceful drain;
#  - faults: short crash / straggler / MTBF / hedge scenarios through
#    the kill/retry/hedge event paths and the fault JSON block;
#  - runahead: trio and depth-ladder rows through the staged-buffer
#    cascade, the priced hold path and the reference identity check.
for sweep in plan hetero traffic faults runahead; do
    "${SAN_BUILD_DIR}/bench_serving" --sweep "${sweep}" --smoke --no-json
done

# TSan pass over the threaded paths: the executor unit suite (steal
# races, exception propagation, nested get, destructor drain), the
# property sweeps with a 4-worker pool (the seed loops shard, and
# PlannerProperties runs speculative planning — including the hetero
# composition lattice — against SimServiceModel's shared_mutex-guarded
# memo caches), a threaded hetero-lattice smoke, which is the one
# path where concurrent probes profile two accelerator classes plus an
# overclocked variant through the shared memo, and a threaded
# run-ahead smoke covering the staged cascade and priced hold paths. TSan excludes ASan by
# construction, so it needs its own tree; the remaining benches and
# the examples are skipped (their byte-identity gates ran above, and a
# TSan'd 10^7-request tier would dominate CI wall-clock without adding
# interleaving coverage the suites don't already have).
cmake -B "${TSAN_BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPOINTACC_TSAN=ON \
    -DPOINTACC_WERROR=ON \
    -DPOINTACC_BUILD_BENCH=ON \
    -DPOINTACC_BUILD_EXAMPLES=OFF

cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
    --target test_executor test_runtime_properties bench_serving

"${TSAN_BUILD_DIR}/test_executor"

"${TSAN_BUILD_DIR}/test_runtime_properties" --threads 4

"${TSAN_BUILD_DIR}/bench_serving" --sweep hetero --smoke --threads 4 \
    --no-json

# Threaded run-ahead smoke under TSan: the trio and depth-ladder rows
# run as pool tasks, so concurrent schedulers exercise the staged
# cascade and the priced hold path against the shared profiling memo.
"${TSAN_BUILD_DIR}/bench_serving" --sweep runahead --smoke --threads 4 \
    --no-json
