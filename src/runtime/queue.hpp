/**
 * @file
 * Bounded admission queue with pluggable dequeue policies, indexed for
 * O(log depth) operation.
 *
 * Requests that arrive while every accelerator is busy wait here. The
 * queue is bounded: a fleet under sustained overload must shed load
 * somewhere, and an explicit drop counter at admission is the honest
 * place (unbounded queues make every overloaded experiment look fine
 * until the latency numbers are read). Three dequeue policies:
 *
 *  - FIFO: arrival order, the fairness baseline;
 *  - SJF: shortest estimated service first, the throughput/mean-latency
 *    optimizer (estimates come from the scheduler's profiled cost
 *    model at admission);
 *  - EDF: earliest absolute deadline first; best-effort requests (no
 *    deadline) rank behind all deadlined ones.
 *
 * The seed implementation scanned a flat vector per selection —
 * O(depth) per pop with O(depth) mid-vector erases, which dominated
 * million-request simulations. Selection now runs over policy-ranked
 * indexes (see queue.cpp):
 *
 *  - a FIFO ring buffer (rank-ordered deque with lazy tombstones —
 *    pushes arrive in rank order on the scheduler's path, so admission
 *    is an O(1) append and pop is an O(1) front read);
 *  - SJF/EDF ordered indexes keyed (policy key, arrival, id) with
 *    O(log depth) insert/erase;
 *  - per-(networkId, sizeBucket) class sub-queues in the same rank
 *    order, so batch formation (popLedByBuckets via Batcher) and
 *    wait-for-K group counting visit only candidate classes instead of
 *    scanning the whole queue. A FIFO class ring's dead prefix (the
 *    members earlier batches took) is pruned when a batch forms over
 *    it, so each dead entry is walked once, not once per formation.
 *
 * Every ranking is the total order (policy key, arrival cycle, id) the
 * seed used, so pop order — including every tie-break — is unchanged;
 * tests/test_runtime_properties.cpp fuzzes pop-for-pop equivalence
 * against the preserved seed queue (runtime/reference.hpp).
 *
 * Contract and invariants (fuzzed by test_runtime_properties via the
 * scheduler): size() never exceeds the depth limit; admitted() +
 * dropped() counts every push exactly once, so the serving report's
 * conservation identity (generated = admitted + dropped) holds; every
 * policy's ranking is total and deterministic (ties always break on
 * arrival cycle, then id), so equal seeds replay byte-identically;
 * peek/pop/peekEligible agree on the same single ranking. Request ids
 * must be unique among queued items (the workload generator's ids are;
 * enqueuing a duplicate id asserts).
 */

#ifndef POINTACC_RUNTIME_QUEUE_HPP
#define POINTACC_RUNTIME_QUEUE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/workload.hpp"

namespace pointacc {

/** Dequeue orderings. */
enum class QueuePolicy
{
    Fifo, ///< first come, first served
    Sjf,  ///< shortest (estimated) job first
    Edf,  ///< earliest deadline first; best-effort last
};

std::string toString(QueuePolicy policy);

/** Bounded admission queue with drop accounting. */
class AdmissionQueue
{
  public:
    explicit AdmissionQueue(std::size_t max_depth);
    ~AdmissionQueue();

    AdmissionQueue(AdmissionQueue &&) noexcept;
    AdmissionQueue &operator=(AdmissionQueue &&) noexcept;

    /** Admit or drop (queue full). Returns true when admitted. */
    bool push(const Request &r);

    /**
     * Admit without touching the admitted/dropped counters, or return
     * false (again uncounted) when the queue is full. This is the
     * re-admission path for crash retries and hedged duplicates
     * (runtime/faults): each offered request is counted exactly once
     * at its first push, so the conservation identity generated =
     * admitted + dropped keeps holding however many times a request
     * re-enters — a shed retry is the scheduler's `failed` terminal
     * state, never a second `dropped`.
     */
    bool pushUncounted(const Request &r);

    bool empty() const { return size() == 0; }
    std::size_t size() const;
    std::size_t depthLimit() const { return maxDepth; }

    /** Next request under `policy` (queue must be non-empty). */
    const Request &peek(QueuePolicy policy) const;

    /**
     * Best-ranked request under `policy` that `excluded` does not
     * reject, or nullptr when every queued request is excluded. The
     * scheduler uses this to skip over wait-for-K held groups so a
     * held head never blocks dispatchable traffic behind it.
     */
    const Request *
    peekEligible(QueuePolicy policy,
                 const std::function<bool(const Request &)> &excluded)
        const;

    /** Remove and return the next request under `policy`. */
    Request pop(QueuePolicy policy);

    /**
     * Batch formation over class sub-queues: pop `head` plus up to
     * `max_count - 1` followers drawn only from the (head.networkId,
     * bucket) sub-queues for the listed `buckets`, in policy order
     * across those classes, accepting a follower r only when
     * `extra(head, r)` (empty = always) holds and `excluded(r)` (empty
     * = never) does not. With `buckets` = every bucket whose size
     * ratio the batcher allows, this selects exactly the requests a
     * policy-order scan of the whole queue for same-network followers
     * would (the seed's selection, LinearRequestQueue::popLedBy) —
     * without visiting other networks' entries. The head anchors the
     * batch, so policy ordering decides *which* batch forms and the
     * predicates decide who may join it.
     */
    std::vector<Request>
    popLedByBuckets(const Request &head, QueuePolicy policy,
                    const std::vector<std::uint32_t> &buckets,
                    const std::function<bool(const Request &,
                                             const Request &)> &extra,
                    std::size_t max_count,
                    const std::function<bool(const Request &)> &excluded);

    /**
     * Visit every queued request of class (networkId, sizeBucket) in
     * the rank order of the most recently used policy; `fn` returns
     * false to stop early. The batcher's wait-for-K probe counts group
     * members this way — the probe's outcome is order-independent, so
     * any visit order matches the seed's full-queue scan.
     */
    void visitClass(std::uint32_t network_id, std::uint32_t bucket,
                    const std::function<bool(const Request &)> &fn) const;

    std::uint64_t admitted() const { return numAdmitted; }
    std::uint64_t dropped() const { return numDropped; }

    /**
     * Engine self-metric: dead FIFO ring entries that traversals have
     * stepped over or dropped since construction (front prunes,
     * in-place skips, compaction). Each popped request leaves two
     * (one in the global ring, one in its class ring); a count that
     * grows faster than that means some path re-walks dead entries
     * per call. Not part of any report.
     */
    std::uint64_t tombstonesWalked() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
    std::size_t maxDepth;
    std::uint64_t numAdmitted = 0;
    std::uint64_t numDropped = 0;
};

} // namespace pointacc

#endif // POINTACC_RUNTIME_QUEUE_HPP
