/**
 * @file
 * Traffic-program presets and schedule replay for the serving runtime.
 *
 * A TrafficProgram (runtime/workload) describes non-stationary load
 * as data: a piecewise-constant rate schedule over a base WorkloadSpec
 * plus stream churn, generated lazily by WorkloadStream. Production
 * point-cloud serving does not run at one rate forever: load follows
 * the day (diurnal swings) and spikes when an event draws a crowd of
 * AR clients at once (flash crowds). This module builds those two
 * shapes every serving paper plots, and replays recorded traces:
 *
 *  - flashCrowdProgram / diurnalProgram: the rate schedule is a
 *    deterministic Markov-modulated Poisson process, which is what a
 *    capacity question ("does this fleet survive Monday morning?")
 *    actually needs — the worst case is replayable, not sampled;
 *  - writeSchedule / readSchedule: a recorded trace — generated or
 *    captured — is re-served bit-for-bit.
 *
 * Invariants (fuzzed by test_runtime_properties): writeSchedule ->
 * readSchedule round-trips to the identical request vector (and
 * identical serving JSON when served); readSchedule rejects malformed
 * input with std::invalid_argument, never garbage requests, and every
 * schedule it accepts serves to a conserving report (a seeded
 * byte-mutation fuzz driver pins both).
 */

#ifndef POINTACC_RUNTIME_TRAFFIC_HPP
#define POINTACC_RUNTIME_TRAFFIC_HPP

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "runtime/workload.hpp"

namespace pointacc {

/** Flash crowd: base rate, then multiplier * base over the window
 *  [start_frac, start_frac + duration_frac) of the horizon, then base
 *  again. Throws std::invalid_argument on a non-positive multiplier
 *  or a window outside (0, 1]. */
TrafficProgram flashCrowdProgram(const WorkloadSpec &base,
                                 double multiplier, double start_frac,
                                 double duration_frac);

/** Diurnal swing: rate follows a raised-cosine day profile between
 *  the base rate (trough) and peak_factor * base (peak), sampled as
 *  steps_per_period piecewise-constant segments per period, repeated
 *  to the horizon. Throws std::invalid_argument on peak_factor < 1,
 *  period_cycles == 0 or steps_per_period < 2. */
TrafficProgram diurnalProgram(const WorkloadSpec &base,
                              std::uint64_t period_cycles,
                              double peak_factor,
                              std::uint32_t steps_per_period);

/**
 * Schedule-file replay. writeSchedule records a trace as a versioned
 * text schedule (one request per line); readSchedule parses one back,
 * throwing std::invalid_argument on a bad magic/version, a malformed
 * or truncated row, rows out of arrival order, a repeated id, an id
 * with bit 63 set (the range hedged duplicates use), or an arrival
 * above kMaxArrivalNs (runtime/workload). A recorded schedule
 * replayed through VectorRequestSource serves byte-identically to the
 * stream that produced it (pinned by test_runtime_properties).
 */
void writeSchedule(std::ostream &os, const std::vector<Request> &trace);
std::vector<Request> readSchedule(std::istream &is);

} // namespace pointacc

#endif // POINTACC_RUNTIME_TRAFFIC_HPP
