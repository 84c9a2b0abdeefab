#include "runtime/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/logging.hpp"
#include "datasets/synthetic.hpp"
#include "nn/executor.hpp"
#include "sim/accelerator.hpp"

namespace pointacc {

// ---------------------------------------------------------------- //
//                          ServiceModel                             //
// ---------------------------------------------------------------- //

namespace {
constexpr std::uint64_t kNoShared =
    std::numeric_limits<std::uint64_t>::max();

/** Incremental FNV-1a, the repository-portable content hash. */
struct Fnv1a
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    mixByte(std::uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ULL;
    }

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            mixByte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    mix(const std::string &s)
    {
        mix(static_cast<std::uint64_t>(s.size()));
        for (const char c : s)
            mixByte(static_cast<std::uint8_t>(c));
    }
};
} // namespace

std::uint64_t
ServiceModel::layerConfigHash(std::uint32_t network_id) const
{
    // Fixed test tables have no layer structure: the id is the whole
    // configuration. Mix it so distinct ids land far apart.
    Fnv1a f;
    f.mix(static_cast<std::uint64_t>(network_id));
    return f.h;
}

std::uint64_t
cyclesToNs(std::uint64_t cycles, double freq_ghz)
{
    // 1 GHz is the identity by construction, not by arithmetic: the
    // differential gates compare the ns engine byte-for-byte against
    // the cycle-domain reference, so the uniform-frequency path must
    // be exempt from any floating-point round trip.
    if (freq_ghz == 1.0)
        return cycles;
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(cycles) / freq_ghz));
}

PhaseProfile
phasesToNs(const PhaseProfile &phases, double freq_ghz)
{
    PhaseProfile ns;
    const std::uint64_t totalNs = cyclesToNs(phases.total(), freq_ghz);
    ns.mapCycles = std::min(cyclesToNs(phases.mapCycles, freq_ghz),
                            totalNs);
    ns.backendCycles = totalNs - ns.mapCycles;
    return ns;
}

std::uint64_t
ServiceModel::batchServiceCycles(const AcceleratorConfig &cfg,
                                 const Batch &batch) const
{
    simAssert(!batch.empty(), "batch must not be empty");
    std::uint64_t sum = 0;
    std::uint64_t longest = 0;
    std::uint64_t shared = kNoShared;
    for (const auto &r : batch.requests) {
        const auto p = profile(cfg, r.networkId, r.sizeBucket);
        sum += p.totalCycles;
        longest = std::max(longest, p.totalCycles);
        // Same network across the batch => same parameter set. The
        // profiled weight-load time can differ per size bucket (it is
        // capped at that bucket's run length), so credit the smallest
        // member's value: never overcredit, and the price of a batch
        // does not depend on member order.
        shared = std::min(shared, p.weightLoadCycles);
    }
    const std::uint64_t saved =
        shared * static_cast<std::uint64_t>(batch.size() - 1);
    return std::max(longest, sum > saved ? sum - saved : longest);
}

PhaseProfile
ServiceModel::batchPhases(const AcceleratorConfig &cfg,
                          const Batch &batch) const
{
    const std::uint64_t total = batchServiceCycles(cfg, batch);
    std::uint64_t mapSum = 0;
    for (const auto &r : batch.requests)
        mapSum +=
            profile(cfg, r.networkId, r.sizeBucket).phases().mapCycles;
    // Mapping never amortizes (each member's cloud maps separately),
    // but the weight credit can shrink the total below sum-of-parts;
    // clamp so the phases still partition the batch price exactly.
    PhaseProfile p;
    p.mapCycles = std::min(mapSum, total);
    p.backendCycles = total - p.mapCycles;
    return p;
}

SimServiceModel::SimServiceModel(ServingCatalog catalog)
    : cat(std::move(catalog))
{
    if (cat.networks.empty())
        throw std::invalid_argument(
            "serving catalog needs at least one network");
    if (cat.bucketScales.empty())
        throw std::invalid_argument(
            "serving catalog needs at least one size bucket");
    for (const double s : cat.bucketScales)
        if (s <= 0.0)
            throw std::invalid_argument(
                "size bucket scales must be positive");
}

const PointCloud &
SimServiceModel::cloudFor(std::uint32_t network_id,
                          std::uint32_t bucket) const
{
    const auto key = std::make_pair(network_id, bucket);
    auto it = clouds.find(key);
    if (it == clouds.end()) {
        const auto &net = cat.networks[network_id];
        it = clouds
                 .emplace(key, generate(net.dataset, cat.cloudSeed,
                                        cat.bucketScales[bucket]))
                 .first;
    }
    return it->second;
}

ServiceProfile
SimServiceModel::profile(const AcceleratorConfig &cfg,
                         std::uint32_t network_id,
                         std::uint32_t bucket) const
{
    if (network_id >= cat.networks.size())
        throw std::invalid_argument(
            "network id outside the serving catalog");
    if (bucket >= cat.bucketScales.size())
        throw std::invalid_argument(
            "size bucket outside the serving catalog");
    const Key key{cfg.name, network_id, bucket};
    // Fast path: the triple is already profiled. Concurrent probes
    // hit this read-side lock on every dispatch, so it must stay
    // shared (never exclusive) once the memo is warm.
    {
        std::shared_lock<std::shared_mutex> lock(memoMutex);
        const auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }

    // Slow path: first profile of this triple. Take the exclusive
    // lock and re-check — two threads can both miss the shared-lock
    // lookup, and only the first to get here may simulate (the meter
    // counts real simulator runs, one per distinct triple).
    std::unique_lock<std::shared_mutex> lock(memoMutex);
    const auto again = cache.find(key);
    if (again != cache.end())
        return again->second;

    const auto &net = cat.networks[network_id];
    const auto &cloud = cloudFor(network_id, bucket);

    Accelerator accel(cfg);
    const RunResult r = accel.run(net, cloud);
    numProfiledRuns += 1;

    // Parameter bytes are a property of the network alone; cache the
    // workload summary across accelerator classes.
    const auto wkey = std::make_pair(network_id, bucket);
    auto wit = weightBytes.find(wkey);
    if (wit == weightBytes.end()) {
        const auto summary = summarizeWorkload(net, cloud);
        wit = weightBytes.emplace(wkey, summary.weightBytes).first;
    }

    ServiceProfile p;
    p.totalCycles = std::max<std::uint64_t>(r.totalCycles, 1);
    p.mappingCycles = r.mappingCycles;
    p.computeCycles = r.computeCycles;
    // Kernel-map footprint: one (input, output) index pair per map
    // entry — what a map-cache hit avoids recomputing and what the
    // cache's bytes-saved counter meters.
    for (const auto &layer : r.layers)
        p.mapBytes += layer.maps * 8;
    // Weight streaming time at this accelerator's DRAM bandwidth:
    // bytes / (GB/s) = ns, times GHz = cycles. Never credit more than
    // the whole run.
    const double ns = static_cast<double>(wit->second) /
                      std::max(cfg.dram.bandwidthGBps, 1e-9);
    p.weightLoadCycles = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(ns * cfg.freqGHz), p.totalCycles);
    cache.emplace(key, p);
    return p;
}

std::uint64_t
SimServiceModel::layerConfigHash(std::uint32_t network_id) const
{
    simAssert(network_id < cat.networks.size(),
              "network id outside the serving catalog");
    // Fingerprint of the layer stack: kind, name and order of every
    // layer plus the global shape knobs. Enough to distinguish every
    // zoo network and any edited variant; not a deep parameter hash.
    const auto &net = cat.networks[network_id];
    Fnv1a f;
    f.mix(net.name);
    f.mix(net.notation);
    f.mix(static_cast<std::uint64_t>(net.inputChannels));
    f.mix(static_cast<std::uint64_t>(net.convClass));
    f.mix(static_cast<std::uint64_t>(net.layers.size()));
    for (const auto &layer : net.layers) {
        f.mix(layer.name);
        f.mix(static_cast<std::uint64_t>(layer.desc.index()));
    }
    return f.h;
}

// ---------------------------------------------------------------- //
//                         FleetScheduler                            //
// ---------------------------------------------------------------- //

FleetScheduler::FleetScheduler(std::vector<AcceleratorConfig> fleet_,
                               const ServiceModel &model_,
                               std::vector<double> bucket_scales,
                               SchedulerConfig config)
    : fleet(std::move(fleet_)), model(model_),
      bucketScales(std::move(bucket_scales)), cfg(config)
{
    if (fleet.empty())
        throw std::invalid_argument("fleet needs at least one accelerator");
    // Resolve the autoscaler config against the concrete fleet now so
    // a bad policy (floor above ceiling, ceiling above the fleet)
    // fails at construction, not mid-simulation.
    if (cfg.autoscaler.enabled)
        cfg.autoscaler =
            resolveAutoscalerConfig(cfg.autoscaler, fleet.size());
    // The fault program, retry policy and batcher config fail fast the
    // same way (mirroring validateWorkloadSpec): malformed inputs throw
    // std::invalid_argument at construction, never mid-simulation.
    // The first two validate vacuously when disabled; the batcher
    // config is checked even with batching off, because run() builds
    // its Batcher either way.
    validateFaultProgram(cfg.faults);
    validateRetryPolicy(cfg.retry);
    validateBatcherConfig(cfg.batcher, bucketScales);
    if (cfg.runAheadDepth < 1)
        throw std::invalid_argument(
            "runAheadDepth must be >= 1 (1 is the blocking handoff)");
    for (const auto &acc : fleet) {
        // Frequencies may differ across members (each instance's
        // profiled cycles convert to the ns event axis at dispatch),
        // but every frequency must be a real clock.
        if (!(acc.freqGHz > 0.0))
            throw std::invalid_argument(
                "fleet members need a positive clock frequency");
        // Service profiles and converted phase splits are memoized per
        // config *name*; two members sharing a name but differing in
        // the fields that drive cost (frequency included) would
        // silently share wrong prices.
        for (const auto &other : fleet) {
            if (acc.name != other.name)
                continue;
            const bool same =
                acc.freqGHz == other.freqGHz &&
                acc.mxu.rows == other.mxu.rows &&
                acc.mxu.cols == other.mxu.cols &&
                acc.mpu.mergerWidth == other.mpu.mergerWidth &&
                acc.inputBufferKB == other.inputBufferKB &&
                acc.weightBufferKB == other.weightBufferKB &&
                acc.outputBufferKB == other.outputBufferKB &&
                acc.sorterBufferKB == other.sorterBufferKB &&
                acc.dram.name == other.dram.name &&
                acc.dram.bandwidthGBps == other.dram.bandwidthGBps;
            if (!same)
                throw std::invalid_argument(
                    "fleet members named '" + acc.name +
                    "' have different configurations; give them "
                    "distinct names");
        }
    }
}

std::string
toString(OccupancyModel model)
{
    switch (model) {
      case OccupancyModel::Monolithic: return "monolithic";
      case OccupancyModel::Pipelined: return "pipelined";
    }
    return "?";
}

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kNoInstance =
    std::numeric_limits<std::uint32_t>::max();
/** Hedged duplicates carry the original id with this bit set, so the
 *  admission queue's id-uniqueness invariant survives a duplicate and
 *  its (retried) original being queued at once. Generator ids are
 *  dense from 0 and never reach the bit. */
constexpr std::uint64_t kHedgeIdBit = 1ULL << 63;

/** The id of record: a hedged duplicate's original id. */
std::uint64_t
origId(const Request &r)
{
    return r.hedge ? (r.id & ~kHedgeIdBit) : r.id;
}

/** One dispatch resident on an instance, in either pipeline stage. */
struct InFlight
{
    Batch batch;
    PhaseProfile phases;
    std::uint64_t dispatchedAt = 0;
    std::uint64_t mapDoneAt = 0; ///< front-end (mapping) completion
    /** Back-end completion: set when the back-end starts, 0 before. */
    std::uint64_t doneAt = 0;
    /** Front-end done; waiting for the back-end to free (blocking
     *  handoff: the mapped batch keeps occupying the front stage). */
    bool mapped = false;
    /** Map-cache entries this (miss) dispatch publishes when its
     *  mapping phase completes — maps exist only once mapped. */
    std::vector<std::pair<MapCacheKey, MapCacheEntry>> inserts;

    void
    publish(MapCache &cache) const
    {
        for (const auto &ins : inserts)
            cache.insert(ins.first, ins.second);
    }
};

/** Autoscaler lifecycle of one instance. Without the autoscaler every
 *  instance is Active forever (byte-identical legacy behavior). */
enum class Life : std::uint8_t
{
    Active,     ///< powered, accepting dispatches
    SpinningUp, ///< powered (burning cycles) but not yet accepting
    Draining,   ///< powered, finishing in-flight work, accepting nothing
    Off,        ///< unpowered
};

/**
 * Global event-heap entry. The discrete-event core replaced the seed
 * loop's per-iteration rescan of every instance with one binary
 * min-heap; entries are sequence-numbered (push order) so heap
 * ordering is total, and carry the stamp of the slot or timer
 * generation they describe for lazy invalidation.
 */
struct Event
{
    enum class Kind : std::uint8_t
    {
        MapDone,   ///< a front slot's mapping phase completes
        RunDone,   ///< a back slot's service completes
        Timer,     ///< earliest wait-for-K hold deadline
        Arrival,   ///< the source's next request arrives
        ScaleEval, ///< periodic autoscaler policy evaluation
        SpinUp,    ///< a powering-on instance becomes Active
        Fault,     ///< a materialized fault event fires (runtime/faults)
        Retry,     ///< a crash victim's backoff expired; re-admit it
        Hedge,     ///< hedge delay expired; duplicate the request
    };

    std::uint64_t at = 0;
    std::uint64_t seq = 0;
    Kind kind = Kind::Arrival;
    std::uint32_t accel = 0;
    std::uint64_t stamp = 0;
};
using Kind = Event::Kind;

struct EventLater
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
};

struct Run;

/**
 * The event core: the global heap with its push sequence, the
 * wait-for-K batch timer, and the stale-entry filter. Each slot or
 * generation an event can describe carries its own stamp — the
 * instances' front/back/life stamps, timerGen here, Scaler::evalGen —
 * and valid() compares against them all.
 */
struct EventCore
{
    std::priority_queue<Event, std::vector<Event>, EventLater> heap;
    std::uint64_t seq = 0;
    /** Earliest pending wait-for-K hold deadline. timerGen stamps the
     *  currently armed timer event; re-arming or disarming bumps it,
     *  orphaning any queued timer entry. */
    std::uint64_t timerAt = kNever;
    std::uint64_t timerGen = 0;
    std::uint64_t armedAt = kNever;

    void
    push(std::uint64_t at, Kind kind, std::uint32_t accel, std::uint64_t stamp)
    {
        heap.push(Event{at, ++seq, kind, accel, stamp});
    }

    void
    syncTimer()
    {
        if (timerAt == armedAt)
            return;
        timerGen += 1;
        armedAt = timerAt;
        if (timerAt != kNever)
            push(timerAt, Kind::Timer, 0, timerGen);
    }

    /** Is `e` still live: does the slot, generation or request it
     *  describes still exist unchanged? */
    bool valid(const Event &e, const Run &run) const;
};

/**
 * One accelerator as a two-stage pipeline: the front slot is the
 * Mapping Unit (a batch occupies it from dispatch until the back-end
 * accepts it), the back slot is the Matrix Unit + memory system. The
 * monolithic occupancy model uses the same machinery with a
 * zero-length map phase and admission gated on full idleness.
 *
 * frontStamp/backStamp are lazy-invalidation generations for the
 * global event heap: each (re)fill of a slot bumps its stamp, so a
 * heap entry for a slot that has since emptied or been refilled is
 * recognized as stale when popped and discarded. lifeStamp plays the
 * same role for SpinUp events (a scale-down that cancels a pending
 * spin-up orphans its event).
 */
struct Instance
{
    std::uint32_t index = 0;
    OccupancyModel occupancy = OccupancyModel::Pipelined;
    /** Staging-FIFO capacity: runAheadDepth - 1 under Pipelined
     *  occupancy, 0 under Monolithic (which never overlaps stages). */
    std::size_t stagedCap = 0;

    std::optional<InFlight> front;
    /** Run-ahead staging FIFO: mapped batches the front-end finished
     *  while the back-end was still busy, queued in mapping-completion
     *  order for promotion as the back-end drains. Empty forever at the
     *  default depth 1, where the handoff blocks exactly as the frozen
     *  reference engine's does. Staged batches hold no pending heap
     *  events (their MapDone fired before parking; their RunDone is
     *  pushed at promotion), so no stamp guards them. */
    std::deque<InFlight> staged;
    std::optional<InFlight> back;
    std::uint64_t frontStamp = 0;
    std::uint64_t backStamp = 0;
    /** High-water mark for busy-interval union accounting: per-batch
     *  residency intervals overlap under pipelining, and utilization
     *  must count wall-clock coverage, not summed service. */
    std::uint64_t coveredUntil = 0;
    AcceleratorUsage usage;
    /** Batches ever parked in the staging FIFO, and its peak depth. */
    std::uint64_t stagedTotal = 0;
    std::uint64_t stagedPeak = 0;
    Life life = Life::Active;
    std::uint64_t lifeStamp = 0;
    /** Crashed by the fault program: accepts nothing until the
     *  matching Recover event. Independent of Life — a crash is a
     *  failure, not an autoscaler decision (though with the
     *  autoscaler on, a crash also powers the instance off so the
     *  policy sees the capacity loss and replaces it). */
    bool crashed = false;
    /** Straggler service-time stretch for new dispatches; exactly 1.0
     *  outside windows, so fault-free pricing skips the float round
     *  trip (the byte-identity gates rely on the == test). */
    double slowdown = 1.0;

    bool idle() const { return !front && staged.empty() && !back; }

    bool
    canAccept() const
    {
        return !crashed && life == Life::Active && !front &&
               (occupancy == OccupancyModel::Pipelined || !back);
    }

    /** Committed back-end work at `now`: the running batch's remainder
     *  plus every staged run-ahead batch (the FIFO serves strictly
     *  before a new dispatch can). */
    std::uint64_t
    backlog(std::uint64_t now) const
    {
        std::uint64_t b = back && back->doneAt > now ? back->doneAt - now : 0;
        for (const auto &s : staged)
            b += s.phases.backendCycles;
        return b;
    }

    /** Exact completion time of `ph` were it dispatched here now:
     *  mapping starts at once (the front slot is free by
     *  precondition), the back-end at the later of mapping completion
     *  and the backlog draining. */
    std::uint64_t
    estimateDone(const PhaseProfile &ph, std::uint64_t now) const
    {
        return now + std::max(ph.mapCycles, backlog(now)) + ph.backendCycles;
    }

    /** Close `u`'s residency at `end` into the busy-interval union.
     *  Intervals arrive in nondecreasing start order (the pipeline is
     *  FIFO per instance), so a running high-water mark suffices. */
    void
    closeResidency(const InFlight &u, std::uint64_t end)
    {
        const std::uint64_t start = std::max(u.dispatchedAt, coveredUntil);
        if (end > start)
            usage.busyCycles += end - start;
        coveredUntil = std::max(coveredUntil, end);
    }

    /** Start a batch on the empty back-end at `now` — the moment the
     *  handoff (or staged promotion) became possible is itself an
     *  event, so `now` is exactly the back-end start. */
    void
    startBack(InFlight unit, std::uint64_t now, EventCore &events)
    {
        unit.doneAt = now + unit.phases.backendCycles;
        usage.backendBusyCycles += unit.phases.backendCycles;
        backStamp += 1;
        if (unit.doneAt > now)
            events.push(unit.doneAt, Kind::RunDone, index, backStamp);
        back.emplace(std::move(unit));
    }

    /**
     * Apply the stage transitions due at `now` — back-end completion,
     * staged run-ahead promotion, then the front->back handoff (which
     * may itself complete at once when a back-end phase is empty) —
     * until a back-end batch completes, and return it; call again
     * until nothing does. Transitions landing strictly in the future
     * enqueue heap events; same-cycle ones cascade right here, so every
     * pending transition always has a live heap entry or resolves
     * synchronously.
     */
    std::optional<InFlight>
    advance(std::uint64_t now, EventCore &events, MapCache &cache)
    {
        for (;;) {
            if (back && back->doneAt <= now) {
                std::optional<InFlight> done = std::move(back);
                back.reset();
                // A monolithic run is one opaque interval with no
                // mapping-completion moment inside it: a miss's kernel
                // maps publish only when the whole run ends.
                if (occupancy == OccupancyModel::Monolithic)
                    done->publish(cache);
                closeResidency(*done, done->doneAt);
                return done;
            }
            // Promote from the staging FIFO first: staged batches
            // finished mapping before anything still in the front
            // slot, and the back-end serves in dispatch order.
            if (!back && !staged.empty()) {
                startBack(std::move(staged.front()), now, events);
                staged.pop_front();
                continue;
            }
            if (!front || front->mapDoneAt > now)
                return std::nullopt;
            // Mapping just finished: a miss dispatch publishes its
            // kernel maps now — later same-cycle dispatches may
            // already hit them.
            if (!front->mapped && occupancy == OccupancyModel::Pipelined)
                front->publish(cache);
            front->mapped = true;
            if (back && staged.size() >= stagedCap)
                return std::nullopt; // blocked handoff
            InFlight unit = std::move(*front);
            front.reset();
            if (!back) {
                // The staged FIFO is empty here (promotion above ran
                // first): direct handoff, the depth-1 path.
                startBack(std::move(unit), now, events);
                continue;
            }
            // Run ahead: park the mapped batch and free the front slot
            // — the Mapping Unit may accept the next dispatch while
            // the back-end works through its backlog.
            staged.push_back(std::move(unit));
            stagedTotal += 1;
            stagedPeak = std::max<std::uint64_t>(stagedPeak, staged.size());
        }
    }

    /**
     * Crash teardown: every resident batch dies, returned in dispatch
     * order (back, staged FIFO, front). Each gives back its un-run
     * stage time, so per-stage busy never exceeds the horizon: the
     * running back-end its remainder, an unmapped front its mapping
     * remainder. A staged batch, or a mapped front blocked on the
     * handoff, ran all its mapping and never started the back-end, so
     * it gives back nothing. Every residency closes at the crash
     * instant, and the slot stamps orphan pending MapDone/RunDone
     * entries.
     */
    std::vector<InFlight>
    crash(std::uint64_t now)
    {
        std::vector<InFlight> dead;
        const auto evict = [&dead](std::optional<InFlight> &slot,
                                   std::uint64_t &stamp) {
            if (!slot)
                return;
            dead.push_back(std::move(*slot));
            slot.reset();
            stamp += 1;
        };
        evict(back, backStamp);
        std::move(staged.begin(), staged.end(), std::back_inserter(dead));
        staged.clear();
        evict(front, frontStamp);
        for (const InFlight &u : dead) {
            if (u.doneAt > now) // only a started back-end has a doneAt
                usage.backendBusyCycles -= u.doneAt - now;
            if (!u.mapped && u.mapDoneAt > now)
                usage.mapBusyCycles -= u.mapDoneAt - now;
            closeResidency(u, now);
        }
        return dead;
    }
};

/**
 * Fault bookkeeping (runtime/faults): the materialized fault timeline,
 * per-request fault state, the retry and hedge slots, and the
 * counters. Inactive (the default, or an enabled program that
 * materializes no events with retries off): nothing enters the heap,
 * no per-request state is consulted, and the run stays byte-identical
 * to a fault-free build — the --sweep faults gate pins that against
 * the frozen reference engine.
 */
struct FaultBook
{
    /** Per-request fault state, created lazily for crash victims and
     *  hedged requests only, keyed by the id of record: `done` marks
     *  the winning completion so a losing copy can never complete a
     *  request twice, `failed` the terminal failure, `crashedOn` the
     *  instance whose crash last killed it (completing elsewhere is a
     *  counted failover). */
    struct ReqState
    {
        bool done = false;
        bool failed = false;
        bool hedged = false;
        std::uint32_t crashedOn = kNoInstance;
    };

    const RetryPolicy &retry;
    /** Immutable once materialized; Fault event stamps index it. */
    const std::vector<FaultEvent> timeline;
    FaultStats stats;
    std::uint64_t failed = 0; ///< terminal failures
    std::unordered_map<std::uint64_t, ReqState> rstate;
    std::vector<Request> retrySlots; // Retry event stamp -> request
    std::vector<Request> hedgeSlots; // Hedge event stamp -> duplicate
    std::uint64_t pendingRetries = 0; // scheduled, not yet re-admitted
    std::uint64_t hedgedInQueue = 0;  // duplicates sitting in admission

    FaultBook(const SchedulerConfig &cfg, std::size_t fleet_size)
        : retry(cfg.retry),
          timeline(materializeFaultEvents(cfg.faults, fleet_size))
    {
        stats.enabled = !timeline.empty() || retry.enabled;
    }

    /** Completion filter: does `r` finishing on `inst` complete its
     *  request of record? The race's loser (or a copy of a request
     *  already declared failed) records only the wasted hedge. */
    bool
    completes(const Request &r, std::uint32_t inst)
    {
        if (!stats.enabled)
            return true;
        const auto it = rstate.find(origId(r));
        if (it == rstate.end())
            return true;
        ReqState &st = it->second;
        if (st.done || st.failed) {
            stats.hedgesLost += r.hedge ? 1 : 0;
            return false;
        }
        st.done = true;
        stats.hedgesWon += r.hedge ? 1 : 0;
        if (st.crashedOn != kNoInstance && st.crashedOn != inst)
            stats.failovers += 1;
        return true;
    }

    /** A crash just killed `r` mid-flight on `inst`: route it through
     *  the retry policy (bounded, exponential backoff priced in ns) or
     *  record the terminal failure. Hedged duplicates get no second
     *  chance — the original (or its own retry chain) is still the
     *  request of record. */
    void
    failRequest(const Request &r, std::uint32_t inst, std::uint64_t now,
                EventCore &events)
    {
        if (r.hedge) {
            stats.hedgesLost += 1;
            return;
        }
        ReqState &st = rstate[r.id];
        if (st.done)
            return; // a hedge copy already completed it
        st.crashedOn = inst;
        stats.inflightFailed += 1;
        bool timedOut = false;
        if (retry.enabled && r.attempt < retry.maxRetries) {
            const std::uint64_t backoff = retryBackoffNs(retry, r.attempt);
            // The wait alone may blow the request's budget.
            timedOut = retry.timeoutNs > 0 &&
                       now + backoff > r.arrivalCycle + retry.timeoutNs;
            if (!timedOut) {
                Request again = r;
                again.attempt += 1;
                retrySlots.push_back(again);
                pendingRetries += 1;
                stats.retryAttempts += 1;
                stats.retryBackoffNsTotal += backoff;
                events.push(now + backoff, Kind::Retry, 0,
                            retrySlots.size() - 1);
                return;
            }
        }
        st.failed = true;
        failed += 1;
        if (timedOut)
            stats.retryTimeouts += 1;
        else if (retry.enabled)
            stats.retryExhausted += 1;
    }

    /** Backoff expired: re-admit the victim unless a hedge copy
     *  finished it meanwhile. Re-admission shed on a full queue is a
     *  terminal failure, never a second `dropped`. */
    void
    fireRetry(std::uint64_t slot, AdmissionQueue &queue)
    {
        pendingRetries -= 1;
        ReqState &st = rstate[retrySlots[slot].id];
        if (!st.done && !queue.pushUncounted(retrySlots[slot])) {
            st.failed = true;
            failed += 1;
            stats.retryShed += 1;
        }
    }

    /** Hedged re-dispatch arms at first dispatch: if the original has
     *  not completed after the hedge delay, a duplicate re-enters
     *  admission and races it (tail-latency insurance against a crash
     *  or straggler eating the original). Copies live in a dedicated
     *  id range so the queue's unique-id invariant holds, and each
     *  request is hedged at most once. */
    void
    armHedges(const Batch &batch, std::uint64_t now, EventCore &events)
    {
        if (!retry.enabled || retry.hedgeDelayNs == 0)
            return;
        for (const auto &r : batch.requests) {
            if (r.hedge)
                continue;
            ReqState &st = rstate[r.id];
            if (st.hedged)
                continue;
            st.hedged = true;
            Request copy = r;
            copy.id |= kHedgeIdBit;
            copy.hedge = true;
            hedgeSlots.push_back(copy);
            events.push(now + retry.hedgeDelayNs, Kind::Hedge, 0,
                        hedgeSlots.size() - 1);
        }
    }

    /** A hedge is live while its request of record is unresolved. */
    bool
    hedgeLive(std::uint64_t slot) const
    {
        const auto it = rstate.find(origId(hedgeSlots[slot]));
        return it != rstate.end() && !it->second.done && !it->second.failed;
    }

    void
    fireHedge(std::uint64_t slot, AdmissionQueue &queue)
    {
        stats.hedges += 1;
        if (queue.pushUncounted(hedgeSlots[slot]))
            hedgedInQueue += 1;
        else
            stats.hedgesLost += 1; // shed copy, original lives
    }

    /** Hedged duplicates leaving admission: leftoverQueued must count
     *  only requests of record. One batch can carry several copies, so
     *  the counter saturates per copy. */
    void
    noteDispatched(const Batch &batch)
    {
        for (const auto &r : batch.requests)
            if (stats.enabled && r.hedge && hedgedInQueue > 0)
                hedgedInQueue -= 1;
    }
};

/**
 * Reactive autoscaling (runtime/autoscaler): the policy, its stats,
 * the powered-instance integral and the latency window. Disabled (the
 * default): every instance stays Active and none of this runs — the
 * event stream and report are byte-identical to pre-autoscaler
 * builds. Enabled: the configured fleet is the *pool*; only instances
 * the policy has powered serve.
 */
struct Scaler
{
    const AutoscalerConfig &cfg;
    AutoscalerPolicy policy;
    AutoscalerStats stats;
    std::uint64_t evalGen = 0;
    /** Powered-instance integral: instanceCycles accumulates
     *  powered * elapsed at every power transition. Spin-up and drain
     *  both count — they burn power without serving, which is exactly
     *  the reactive-scaling cost the traffic gate measures. */
    std::uint32_t powered = 0;
    std::uint64_t lastPowerChange = 0;
    /** Completion latencies since the last evaluation — the windowed
     *  p99 signal. */
    std::vector<std::uint64_t> windowLat;

    explicit Scaler(const AutoscalerConfig &c) : cfg(c), policy(c) {}

    bool on() const { return cfg.enabled; }

    /** Power the initial instances and arm the first evaluation. */
    void
    start(std::vector<Instance> &pool, EventCore &events)
    {
        for (std::size_t i = cfg.initialInstances; i < pool.size(); ++i)
            pool[i].life = Life::Off;
        powered = cfg.initialInstances;
        stats.peakProvisioned = cfg.initialInstances;
        evalGen = 1;
        events.push(cfg.evalIntervalCycles, Kind::ScaleEval, 0, evalGen);
    }

    void
    notePower(std::uint64_t now, int delta)
    {
        stats.instanceCycles +=
            static_cast<std::uint64_t>(powered) * (now - lastPowerChange);
        lastPowerChange = now;
        powered =
            static_cast<std::uint32_t>(static_cast<int>(powered) + delta);
    }

    /** Power `inst` off now, orphaning any pending SpinUp event. */
    void
    powerOff(Instance &inst, std::uint64_t now)
    {
        inst.life = Life::Off;
        inst.lifeStamp += 1;
        notePower(now, -1);
    }

    /** What the policy sees as capacity: powered instances that are
     *  not on their way out (a draining instance no longer absorbs
     *  load). */
    static std::uint32_t
    provisioned(const std::vector<Instance> &pool)
    {
        return static_cast<std::uint32_t>(
            std::count_if(pool.begin(), pool.end(), [](const Instance &a) {
                return a.life == Life::Active || a.life == Life::SpinningUp;
            }));
    }

    /**
     * One policy evaluation at `now`: read the windowed signals,
     * decide, apply. Scale-up prefers resurrecting a draining instance
     * (still powered, nothing was torn down — instantly Active) over
     * powering a cold one, which pays spinUpCycles before accepting
     * work; crashed hardware cannot be powered on. Scale-down first
     * cancels a pending spin-up (nothing in flight to drain), else
     * retires the highest-index Active instance gracefully: it stops
     * accepting dispatches but finishes its pipeline (Run::service
     * powers it off once drained).
     */
    void
    evaluate(std::uint64_t now, std::uint64_t depth,
             std::vector<Instance> &pool, EventCore &events)
    {
        std::uint64_t windowP99 = 0;
        if (!windowLat.empty()) {
            const std::size_t idx = std::min(
                (windowLat.size() * 99 + 99) / 100 - 1, windowLat.size() - 1);
            std::nth_element(windowLat.begin(),
                             windowLat.begin() +
                                 static_cast<std::ptrdiff_t>(idx),
                             windowLat.end());
            windowP99 = windowLat[idx];
        }
        windowLat.clear();
        const int action =
            policy.decide(now, depth, windowP99, provisioned(pool));
        const auto findLife = [&pool](Life life, bool fromTop) {
            for (std::size_t k = 0; k < pool.size(); ++k) {
                Instance &a = pool[fromTop ? pool.size() - 1 - k : k];
                if (a.life == life && !a.crashed)
                    return &a;
            }
            return static_cast<Instance *>(nullptr);
        };
        if (action > 0) {
            Instance *a = findLife(Life::Draining, false);
            if (a != nullptr) {
                a->life = Life::Active; // resurrect: no power change
            } else if ((a = findLife(Life::Off, false)) != nullptr) {
                notePower(now, +1);
                a->life = cfg.spinUpCycles == 0 ? Life::Active
                                                : Life::SpinningUp;
                if (cfg.spinUpCycles != 0)
                    events.push(now + cfg.spinUpCycles, Kind::SpinUp,
                                a->index, ++a->lifeStamp);
            }
            stats.scaleUps += a != nullptr ? 1 : 0;
        } else if (action < 0) {
            Instance *a = findLife(Life::SpinningUp, true);
            if (a != nullptr) {
                powerOff(*a, now);
            } else if ((a = findLife(Life::Active, true)) != nullptr) {
                if (a->idle())
                    powerOff(*a, now);
                else
                    a->life = Life::Draining;
            }
            stats.scaleDowns += a != nullptr ? 1 : 0;
        }
        const std::uint32_t prov = provisioned(pool);
        stats.peakProvisioned = std::max(stats.peakProvisioned, prov);
        stats.evals += 1;
        stats.timeline.samples.push_back(ScalingSample{
            now, depth, windowP99, prov, static_cast<std::int64_t>(action)});
        evalGen += 1;
        events.push(now + cfg.evalIntervalCycles, Kind::ScaleEval, 0,
                    evalGen);
    }

    AutoscalerStats
    finish(std::uint64_t clock, const std::vector<Instance> &pool)
    {
        notePower(clock, 0); // close the powered-instance integral
        stats.enabled = true;
        stats.minInstances = cfg.minInstances;
        stats.maxInstances = cfg.maxInstances;
        stats.finalProvisioned = provisioned(pool);
        stats.timeline.bucketCycles = cfg.evalIntervalCycles;
        return std::move(stats);
    }
};

/** Reference-instance prices of one (network, bucket) class, in ns:
 *  the SJF/EDF admission estimate and the cost-aware hold's weight-
 *  reload and mapping prices. */
struct ClassPrice
{
    std::uint64_t estimateNs = 0;
    std::uint64_t weightLoadNs = 0;
    std::uint64_t mapNs = 0;
};

/** Offered arrivals of one network: count, first and last instant. */
struct ArrivalCadence
{
    std::uint64_t count = 0;
    std::uint64_t firstNs = 0;
    std::uint64_t lastNs = 0;
};

/**
 * One simulation: admission (queue, batcher, map cache, class prices),
 * the instances, the fault book, the scaler and the event core, plus
 * the steps FleetScheduler::run sequences — service, faults, dispatch
 * and admission. Its batcher rule captures `this`, so a Run is built
 * in place and never copied.
 */
struct Run
{
    const std::vector<AcceleratorConfig> &fleet;
    const ServiceModel &model;
    const SchedulerConfig &cfg;
    RequestSource &source;
    /** Catalog size buckets: admission rejects a request naming one
     *  past the end before the batcher indexes its scale table. */
    const std::size_t buckets;

    ServingReport report;
    AdmissionQueue queue;
    Batcher batcher;
    MapCache mapCache;
    std::vector<Instance> instances;
    FaultBook faults;
    Scaler scaler;
    EventCore events;

    /** Per-network layer-config hash memo for map-cache keys. */
    std::map<std::uint32_t, std::uint64_t> layerHashes;
    /** Accelerator class per instance: the index of the first fleet
     *  member with the same config name. Dispatch prices a batch once
     *  per class. */
    std::vector<std::size_t> classOf;
    /** Reference-instance prices per (network, bucket). The profile
     *  call is deterministic, so the memo keeps admission
     *  O(log classes). */
    std::map<std::pair<std::uint32_t, std::uint32_t>, ClassPrice> prices;
    /** Cost-aware dispatch (BatcherConfig::costAware). Off (the
     *  default): the cadence is never touched and the run stays
     *  byte-identical to the frozen reference engine. */
    const bool costAwareOn;
    std::map<std::uint32_t, ArrivalCadence> cadence;
    /** Leaders whose hold episodes were already counted in batchHolds
     *  (one episode per leader, however many events re-evaluate it). */
    std::unordered_set<std::uint64_t> countedHolds;
    /** Exactly one Arrival entry is outstanding: the source's next
     *  request. */
    bool arrivalQueued = false;

    Run(const std::vector<AcceleratorConfig> &fleet_,
        const ServiceModel &model_, const std::vector<double> &scales,
        const SchedulerConfig &cfg_, RequestSource &source_)
        : fleet(fleet_), model(model_), cfg(cfg_), source(source_),
          buckets(scales.size()), queue(cfg.queueDepth),
          batcher(cfg.batcher, scales),
          mapCache(cfg.mapCache), instances(fleet.size()),
          faults(cfg, fleet.size()), scaler(cfg.autoscaler),
          costAwareOn(cfg.batcher.enabled && cfg.batcher.costAware &&
                      cfg.batcher.targetK > 1)
    {
        report.freqGHz = fleet.front().freqGHz;
        report.occupancy = toString(cfg.occupancy);
        report.runAheadDepth = cfg.runAheadDepth;
        report.costAware = cfg.batcher.costAware;
        // A hit's collapsed map phase and a miss's full mapping can
        // never share one dispatch price: keep batches hit-pure or
        // miss-pure (evaluated against the cache state at decision
        // time, like every other compatibility check).
        if (mapCache.enabled())
            batcher.setExtraCompatibility(
                [this](const Request &a, const Request &b) {
                    return mapCache.contains(keyOf(a)) ==
                           mapCache.contains(keyOf(b));
                });
        classOf.resize(fleet.size());
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            Instance &inst = instances[i];
            inst.index = static_cast<std::uint32_t>(i);
            inst.occupancy = cfg.occupancy;
            if (cfg.occupancy == OccupancyModel::Pipelined)
                inst.stagedCap = cfg.runAheadDepth - 1;
            inst.usage.name = fleet[i].name + "#" + std::to_string(i);
            inst.usage.freqGHz = fleet[i].freqGHz;
            classOf[i] = i;
            for (std::size_t j = 0; j < i && classOf[i] == i; ++j)
                if (fleet[j].name == fleet[i].name)
                    classOf[i] = j;
        }
        // Prime the heap: the first arrival, the first scaling
        // evaluation, then the whole materialized fault timeline (the
        // stamp indexes back into it).
        armArrival();
        if (scaler.on())
            scaler.start(instances, events);
        for (std::size_t f = 0; f < faults.timeline.size(); ++f)
            events.push(faults.timeline[f].atNs, Kind::Fault,
                        faults.timeline[f].instance, f);
    }

    Run(const Run &) = delete;

    MapCacheKey
    keyOf(const Request &r)
    {
        const auto [it, fresh] = layerHashes.try_emplace(r.networkId, 0);
        if (fresh)
            it->second = model.layerConfigHash(r.networkId);
        return MapCacheKey{r.cloudId, r.networkId, it->second};
    }

    /** SJF/EDF estimates and cost-aware prices are priced against the
     *  lead accelerator: relative job ordering and cost magnitudes are
     *  what matter, and network cost ratios are stable across
     *  classes. */
    const ClassPrice &
    priceOf(const Request &r)
    {
        const auto [it, fresh] =
            prices.try_emplace({r.networkId, r.sizeBucket});
        if (fresh) {
            const double ghz = fleet.front().freqGHz;
            const auto p =
                model.profile(fleet.front(), r.networkId, r.sizeBucket);
            it->second = {cyclesToNs(p.totalCycles, ghz),
                          cyclesToNs(p.weightLoadCycles, ghz),
                          cyclesToNs(p.phases().mapCycles, ghz)};
        }
        return it->second;
    }

    /** Is there anything left to serve or scale for? Gates the
     *  recurring autoscaler and fault events so an idle, drained
     *  simulation terminates (and its horizon is the work's). */
    bool
    hasWork() const
    {
        // A scheduled retry will re-enter admission.
        return !queue.empty() || source.peek() != nullptr ||
               faults.pendingRetries > 0 ||
               !std::all_of(instances.begin(), instances.end(),
                            [](const Instance &a) { return a.idle(); });
    }

    /** Could any instance serve again: one is up, or a fault event
     *  still to fire may recover one? */
    bool
    canServeAgain(std::uint64_t now) const
    {
        return std::any_of(instances.begin(), instances.end(),
                           [](const Instance &a) { return !a.crashed; }) ||
               (!faults.timeline.empty() &&
                faults.timeline.back().atNs >= now);
    }

    /** Apply every stage transition due at `now` on one instance,
     *  recording each back-end completion. */
    void
    service(std::uint32_t idx, std::uint64_t now)
    {
        Instance &inst = instances[idx];
        while (std::optional<InFlight> unit =
                   inst.advance(now, events, mapCache)) {
            for (const auto &r : unit->batch.requests) {
                if (!faults.completes(r, idx))
                    continue;
                const std::uint64_t latency = unit->doneAt - r.arrivalCycle;
                report.latencyCycles.record(static_cast<double>(latency));
                report.completionCycles.push_back(unit->doneAt);
                if (r.deadlineCycle > 0 && unit->doneAt > r.deadlineCycle)
                    report.deadlineMisses += 1;
                report.completed += 1;
                if (scaler.on())
                    scaler.windowLat.push_back(latency);
            }
            // Graceful drain made countable: work finished by an
            // instance already decommissioned when it completed.
            if (scaler.on() && inst.life == Life::Draining)
                scaler.stats.drainedBatches += 1;
        }
        // A draining instance powers off the moment its pipeline
        // empties — graceful drain complete.
        if (scaler.on() && inst.life == Life::Draining && inst.idle())
            scaler.powerOff(inst, now);
    }

    /** Apply one materialized fault event. A batch completing at the
     *  crash instant completes: the service sweep runs first. */
    void
    applyFault(const FaultEvent &f, std::uint64_t now)
    {
        Instance &a = instances[f.instance];
        switch (f.kind) {
          case FaultEventKind::Crash:
            if (a.crashed)
                return; // overlapping outages coalesce
            a.crashed = true;
            faults.stats.crashes += 1;
            for (const InFlight &u : a.crash(now)) {
                faults.stats.failedBatches += 1;
                for (const auto &r : u.batch.requests)
                    faults.failRequest(r, f.instance, now, events);
            }
            // With the autoscaler on, a crash is a power loss: the
            // policy sees provisioned capacity drop, and its spin-up
            // path doubles as crash replacement.
            if (scaler.on() && a.life != Life::Off)
                scaler.powerOff(a, now);
            break;
          case FaultEventKind::Recover:
            if (!a.crashed)
                return;
            a.crashed = false;
            faults.stats.recoveries += 1;
            // Autoscaled fleets get the instance back as an Off pool
            // candidate (powering it is the policy's call); static
            // fleets resume dispatching to it immediately.
            break;
          case FaultEventKind::StragglerStart:
            a.slowdown = f.factor;
            faults.stats.stragglerWindows += 1;
            break;
          case FaultEventKind::StragglerEnd:
            a.slowdown = 1.0;
            break;
        }
    }

    /** Price one hold-vs-dispatch decision for a batch led by `head`.
     *  The backlog is the committed back-end work on the least-loaded
     *  accepting instance — the one the dispatch would plausibly land
     *  on; while it outlasts the head's mapping, holding the front-end
     *  forfeits no overlap. */
    DispatchCost
    dispatchCostOf(const Request &head, std::uint64_t now)
    {
        DispatchCost price;
        const ClassPrice &cp = priceOf(head);
        price.weightLoadNs = cp.weightLoadNs;
        price.mapNs = cp.mapNs;
        // Mean inter-arrival gap of the head's network; 0 until two
        // arrivals have been seen (no cadence, no priced hold).
        const auto it = cadence.find(head.networkId);
        if (it != cadence.end() && it->second.count >= 2)
            price.arrivalGapNs = (it->second.lastNs - it->second.firstNs) /
                                 (it->second.count - 1);
        std::uint64_t backlog = kNever;
        for (const auto &a : instances)
            if (a.canAccept())
                backlog = std::min(backlog, a.backlog(now));
        price.backlogNs = backlog == kNever ? 0 : backlog;
        return price;
    }

    /** One dispatch pass at `now`: form and place batches while an
     *  instance can accept, holding undersized wait-for-K groups. */
    void
    dispatch(std::uint64_t now)
    {
        // The timer mirrors the *currently outstanding* holds: every
        // pass re-decides, so first disarm — a hold resolved by new
        // arrivals must not leave a stale event inflating the horizon.
        events.timerAt = kNever;
        // Leaders held this pass. A hold freezes only the leader's
        // compatibility group: its members neither lead nor join
        // batches until the group reaches K or the deadline passes,
        // while every other group keeps dispatching around it.
        std::vector<Request> heldLeaders;
        const std::function<bool(const Request &)> inHeldGroup =
            [&](const Request &r) {
                for (const auto &h : heldLeaders)
                    if (h.id == r.id || batcher.compatible(h, r))
                        return true;
                return false;
            };
        while (!queue.empty() &&
               std::any_of(instances.begin(), instances.end(),
                           [](const Instance &a) { return a.canAccept(); })) {
            const Request *head = queue.peekEligible(cfg.policy, inHeldGroup);
            if (head == nullptr)
                break; // everything queued belongs to a held group

            // Wait-for-K: hold this group and arm a timer instead of
            // dispatching undersized, unless the deadline passed (or,
            // cost-aware, unless waiting no longer pays).
            const BatchHold hold =
                costAwareOn
                    ? batcher.costAwareHold(queue, *head, now,
                                            dispatchCostOf(*head, now),
                                            inHeldGroup)
                    : batcher.holdForHead(queue, *head, now, inHeldGroup);
            if (hold.hold) {
                report.costHolds += costAwareOn ? 1 : 0;
                if (countedHolds.insert(head->id).second) {
                    report.batchHolds += 1;
                    report.holdTrackingPeak = std::max<std::uint64_t>(
                        report.holdTrackingPeak, countedHolds.size());
                }
                events.timerAt = std::min(events.timerAt, hold.until);
                heldLeaders.push_back(*head);
                continue; // other groups may still dispatch
            }

            Batch batch =
                batcher.formLedBy(queue, *head, cfg.policy, inHeldGroup);
            // Hold episodes end at dispatch: dropping the members' ids
            // keeps the dedup set bounded by queue depth (a re-queued
            // id later starts a fresh, separately counted episode).
            if (!countedHolds.empty())
                for (const auto &r : batch.requests)
                    countedHolds.erase(r.id);
            if (costAwareOn &&
                batch.size() < std::min<std::size_t>(
                                   cfg.batcher.targetK,
                                   cfg.batcher.maxBatchSize))
                report.costDispatches += 1;
            faults.noteDispatched(batch);
            place(std::move(batch), now);
        }
        events.syncTimer();
    }

    /** Place `batch` on the accepting instance that finishes it
     *  soonest. */
    void
    place(Batch batch, std::uint64_t now)
    {
        // Classify against the map cache. The batcher's extra rule
        // keeps batches hit-pure or miss-pure; the all-of scan is the
        // honest check of that invariant.
        bool hitBatch = mapCache.enabled();
        for (const auto &r : batch.requests)
            hitBatch = hitBatch && mapCache.contains(keyOf(r));
        // Modelled cost of streaming the cached maps back, clamped
        // below into the mapping it replaces (a hit can never be
        // slower than the miss it avoids).
        const std::uint64_t readCost =
            cfg.mapCache.hitReadCycles *
            static_cast<std::uint64_t>(batch.size());

        // Batch phases depend only on the accelerator class, so price
        // once per class. The profiled cycles convert to the ns event
        // axis here, at this class's own clock — the one point where
        // the per-instance cycle domain meets the global wall clock.
        std::vector<std::optional<PhaseProfile>> classPhases(fleet.size());
        std::size_t best = instances.size();
        std::uint64_t bestDone = kNever;
        PhaseProfile bestPhases;
        for (std::size_t i = 0; i < instances.size(); ++i) {
            const Instance &inst = instances[i];
            if (!inst.canAccept())
                continue;
            auto &memo = classPhases[classOf[i]];
            if (!memo) {
                const PhaseProfile full = phasesToNs(
                    model.batchPhases(fleet[i], batch), fleet[i].freqGHz);
                const std::uint64_t skipped =
                    hitBatch ? full.mapCycles - std::min(full.mapCycles,
                                                         readCost)
                             : 0;
                // Pipelined: a hit's map phase collapses to the read.
                // Monolithic: one opaque interval, shrunk by the
                // mapping a hit skips.
                memo = cfg.occupancy == OccupancyModel::Pipelined
                           ? PhaseProfile{full.mapCycles - skipped,
                                          full.backendCycles}
                           : PhaseProfile{0, full.total() - skipped};
            }
            PhaseProfile ph = *memo;
            // Straggler windows stretch this instance's service time.
            // The exact ==1.0 comparison keeps the fault-free path free
            // of any float round-trip — byte-identity with the
            // reference engine depends on it.
            if (inst.slowdown != 1.0)
                for (std::uint64_t *c : {&ph.mapCycles, &ph.backendCycles})
                    *c = static_cast<std::uint64_t>(std::llround(
                        static_cast<double>(*c) * inst.slowdown));
            const std::uint64_t done = inst.estimateDone(ph, now);
            if (done < bestDone) {
                bestDone = done;
                best = i;
                bestPhases = ph;
            }
        }

        InFlight unit;
        unit.phases = bestPhases;
        unit.dispatchedAt = now;
        unit.mapDoneAt = now + bestPhases.mapCycles;
        const AcceleratorConfig &acc = fleet[best];
        if (hitBatch) {
            // Recency/frequency and byte savings book per member; the
            // cycle savings book once per batch as exactly what this
            // dispatch skipped, priced against the instance the hit
            // dispatched to, in event-axis ns.
            for (const auto &r : batch.requests)
                mapCache.recordHit(keyOf(r));
            const std::uint64_t batchMap =
                phasesToNs(model.batchPhases(acc, batch), acc.freqGHz)
                    .mapCycles;
            mapCache.creditSavedCycles(batchMap -
                                       std::min(batchMap, readCost));
        } else if (mapCache.enabled()) {
            // Misses publish their maps at mapping completion, priced
            // against the chosen instance. cloudId 0 means "no content
            // identity" (hand-built traces): count the miss but never
            // publish a map — distinct geometries must not alias one
            // entry.
            for (const auto &r : batch.requests) {
                mapCache.recordMiss();
                if (r.cloudId == 0)
                    continue;
                const auto p = model.profile(acc, r.networkId, r.sizeBucket);
                const MapCacheEntry entry{
                    cyclesToNs(p.phases().mapCycles, acc.freqGHz), p.mapBytes};
                unit.inserts.emplace_back(keyOf(r), entry);
            }
        }
        report.batchSize.record(static_cast<double>(batch.size()));
        for (const auto &r : batch.requests)
            report.queueWaitCycles.record(
                static_cast<double>(now - r.arrivalCycle));
        faults.armHedges(batch, now, events);
        unit.batch = std::move(batch);

        Instance &inst = instances[best];
        inst.usage.mapBusyCycles += unit.phases.mapCycles;
        inst.usage.batches += 1;
        inst.usage.requests += unit.batch.size();
        inst.frontStamp += 1;
        if (unit.mapDoneAt > now)
            events.push(unit.mapDoneAt, Kind::MapDone, inst.index,
                        inst.frontStamp);
        inst.front.emplace(std::move(unit));
        // Zero-length map phases promote straight to the back-end
        // (this is the whole dispatch in the monolithic model).
        service(inst.index, now);
    }

    void
    armArrival()
    {
        if (arrivalQueued || source.peek() == nullptr)
            return;
        events.push(source.peek()->arrivalCycle, Kind::Arrival, 0, 0);
        arrivalQueued = true;
    }

    /** Admit every arrival due at `now`, then re-arm the Arrival
     *  entry for the source's next request. */
    void
    admit(std::uint64_t now)
    {
        while (source.peek() != nullptr &&
               source.peek()->arrivalCycle <= now) {
            Request r = source.take();
            if (r.sizeBucket >= buckets)
                throw std::invalid_argument(
                    "request " + std::to_string(r.id) +
                    " names a size bucket outside the catalog");
            if (r.arrivalCycle > kMaxArrivalNs)
                throw std::invalid_argument(
                    "request " + std::to_string(r.id) +
                    " arrives above the 2^62 ns ceiling");
            report.generated += 1;
            r.estimatedCycles = priceOf(r).estimateNs;
            // The cadence tracks the offered arrival process (drops
            // included; retries and hedges are re-admissions, not
            // arrivals, and never pass through here).
            if (costAwareOn) {
                ArrivalCadence &c = cadence[r.networkId];
                c.firstNs = c.count == 0 ? r.arrivalCycle : c.firstNs;
                c.lastNs = r.arrivalCycle;
                c.count += 1;
            }
            queue.push(r); // drop accounting lives in the queue
        }
        armArrival();
    }

    ServingReport
    finish(std::uint64_t clock)
    {
        report.horizonCycles = clock;
        report.admitted = queue.admitted();
        report.dropped = queue.dropped();
        report.failed = faults.failed;
        // Hedged duplicates still in admission are not requests of
        // record: admitted = completed + failed + leftoverQueued counts
        // each request exactly once.
        report.leftoverQueued = queue.size() - faults.hedgedInQueue;
        report.faults = faults.stats;
        report.mapCache = mapCache.stats();
        for (const auto &inst : instances) {
            report.accelerators.push_back(inst.usage);
            report.runAheadStaged += inst.stagedTotal;
            report.runAheadPeakStaged =
                std::max(report.runAheadPeakStaged, inst.stagedPeak);
        }
        if (scaler.on())
            report.autoscaler = scaler.finish(clock, instances);
        return std::move(report);
    }
};

bool
EventCore::valid(const Event &e, const Run &run) const
{
    const Instance &a = run.instances[e.accel];
    switch (e.kind) {
      case Kind::MapDone:
        return a.front && a.frontStamp == e.stamp && !a.front->mapped;
      case Kind::RunDone:
        return a.back && a.backStamp == e.stamp;
      case Kind::Timer:
        return timerAt != kNever && e.stamp == timerGen;
      case Kind::Arrival:
      case Kind::Retry:
        // Retries are always live: pendingRetries counts them as work,
        // and the fire handler drops retries a hedge already won.
        return true;
      case Kind::ScaleEval:
        // The recurring evaluation dies with the work: a drained, idle
        // simulation must terminate, not tick forever. So does one
        // whose whole fleet is down for good: like a static fleet, it
        // strands its backlog.
        return run.scaler.on() && e.stamp == run.scaler.evalGen &&
               run.hasWork() && run.canServeAgain(e.at);
      case Kind::SpinUp:
        return a.life == Life::SpinningUp && a.lifeStamp == e.stamp &&
               run.hasWork();
      case Kind::Fault:
        // A fault program outliving the workload must not extend the
        // horizon: trailing events on a drained, idle fleet are dead.
        return run.hasWork();
      case Kind::Hedge:
        return run.faults.hedgeLive(e.stamp);
    }
    return false;
}

} // namespace

ServingReport
FleetScheduler::run(std::vector<Request> arrivals) const
{
    std::stable_sort(arrivals.begin(), arrivals.end(), arrivalOrderBefore);
    VectorRequestSource source(std::move(arrivals));
    return run(source);
}

ServingReport
FleetScheduler::run(RequestSource &source) const
{
    Run s(fleet, model, bucketScales, cfg, source);
    auto &heap = s.events.heap;
    std::uint64_t clock = 0;
    std::vector<std::uint32_t> due;
    std::vector<std::uint64_t> faultDue;
    for (;;) {
        // The next event time is the first live entry's timestamp —
        // the heap's analogue of the seed loop's min() rescan over
        // every instance, the arrival cursor and the timer.
        while (!heap.empty() && !s.events.valid(heap.top(), s))
            heap.pop();
        if (heap.empty())
            break; // pipelines drained, no arrivals, no pending timer
        clock = heap.top().at;
        s.report.loopEvents += 1;

        // Drain every entry due at `clock` (live or stale) so all
        // same-cycle transitions are applied before dispatch decides;
        // validity is judged at pop time, after every earlier entry of
        // the tick has been applied.
        due.clear();
        faultDue.clear();
        bool evalDue = false;
        while (!heap.empty() && heap.top().at <= clock) {
            const Event e = heap.top();
            heap.pop();
            if (!s.events.valid(e, s))
                continue;
            switch (e.kind) {
              case Kind::MapDone:
              case Kind::RunDone:
                due.push_back(e.accel);
                break;
              case Kind::Timer:
                // Nothing to apply: the dispatch pass below re-probes
                // every hold against the clock.
                break;
              case Kind::Arrival:
                s.arrivalQueued = false;
                break;
              case Kind::ScaleEval:
                // Applied after the service sweep so the policy sees
                // this cycle's completions in its window.
                evalDue = true;
                break;
              case Kind::SpinUp:
                // Spin-up finished: the instance accepts work this
                // cycle (power was counted at the decision).
                s.instances[e.accel].life = Life::Active;
                break;
              case Kind::Fault:
                // Deferred past the service sweep: a batch completing
                // at the crash instant completes.
                faultDue.push_back(e.stamp);
                break;
              case Kind::Retry:
                s.faults.fireRetry(e.stamp, s.queue);
                break;
              case Kind::Hedge:
                s.faults.fireHedge(e.stamp, s.queue);
                break;
            }
        }

        // Stage transitions first, in instance order (same-cycle
        // completions across instances record in index order): a
        // request arriving this cycle can reuse the capacity that
        // just freed up.
        std::sort(due.begin(), due.end());
        due.erase(std::unique(due.begin(), due.end()), due.end());
        for (const std::uint32_t a : due)
            s.service(a, clock);

        // Faults land after the service sweep (same-tick completions
        // win) and before scaling/dispatch, so the policy sees the
        // capacity loss and no new work is placed on dead hardware.
        for (const std::uint64_t f : faultDue)
            s.applyFault(s.faults.timeline[f], clock);

        // Scale decisions land before dispatch: a zero-spin-up
        // activation serves this very cycle, and a decommissioned
        // instance stops accepting before new work is placed.
        if (evalDue)
            s.scaler.evaluate(clock, s.queue.size(), s.instances,
                              s.events);

        // Drain backlog onto freed stages before admitting, so a
        // same-cycle arrival is not dropped against queue space the
        // completion just made available; then admit, and dispatch
        // what arrived.
        s.dispatch(clock);
        s.admit(clock);
        s.dispatch(clock);
    }
    return s.finish(clock);
}

} // namespace pointacc
