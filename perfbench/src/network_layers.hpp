/**
 * @file
 * Per-layer ledger of the cycle simulator's host-side layers —
 * datasets, mapping, nn and sim — over a set of (network, cloud)
 * cases. Shared by the accel-suite and plan-cold workloads.
 */

#ifndef PERFBENCH_NETWORK_LAYERS_HPP
#define PERFBENCH_NETWORK_LAYERS_HPP

#include <vector>

#include "core/point_cloud.hpp"
#include "harness.hpp"
#include "nn/network.hpp"

namespace perfbench {

/** One network over one input cloud. */
struct NetCase
{
    pointacc::Network net;
    pointacc::PointCloud cloud;
};

/**
 * Replay the mapping operations of every sparse-convolution case the
 * way nn/executor builds its outputs, and check that sortKernelMap and
 * hashKernelMap agree on every cloud the network maps.
 */
void checkKernelMaps(const std::vector<NetCase> &cases, Checks &checks);

/**
 * Traced per-layer ledger over `cases`, `reps` times: mapping kernel
 * host time by kind (each kernel called directly by the replay, which
 * is first checked to emit nn/executor's exact (kind, input, output)
 * mapping sequence), summarizeWorkload work counts, executeNetwork with
 * a no-op visitor, and Accelerator::run (sim.self = run - execute).
 * Times are host ms per pass over all cases (medians over reps).
 */
void measureNetworkLayers(const std::vector<NetCase> &cases,
                          std::size_t reps, Tracer &tracer,
                          std::vector<Metric> &layers, Checks &checks);

} // namespace perfbench

#endif // PERFBENCH_NETWORK_LAYERS_HPP
