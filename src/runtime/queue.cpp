#include "runtime/queue.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "core/logging.hpp"

namespace pointacc {

std::string
toString(QueuePolicy policy)
{
    switch (policy) {
      case QueuePolicy::Fifo: return "fifo";
      case QueuePolicy::Sjf: return "sjf";
      case QueuePolicy::Edf: return "edf";
    }
    return "?";
}

namespace {

/** Primary ranking key per policy; ties always break on (arrival, id),
 *  exactly the seed's ranksBefore order. */
std::uint64_t
policyKey(QueuePolicy policy, const Request &r)
{
    switch (policy) {
      case QueuePolicy::Fifo:
        return 0; // arrival order == (arrival, id) order
      case QueuePolicy::Sjf:
        return r.estimatedCycles;
      case QueuePolicy::Edf:
        // 0 means best-effort: rank behind every deadlined request.
        return r.deadlineCycle == 0 ? ~0ULL : r.deadlineCycle;
    }
    return 0;
}

/** One index entry. `seq` is the push sequence number: an entry is
 *  stale (lazily deleted) when the id is gone from the live table or
 *  was re-enqueued with a newer sequence number. */
struct Entry
{
    std::uint64_t key = 0;
    std::uint64_t arrival = 0;
    std::uint64_t id = 0;
    std::uint64_t seq = 0;

    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>
    rank() const
    {
        return {key, arrival, id};
    }
};

struct RankLess
{
    bool
    operator()(const Entry &a, const Entry &b) const
    {
        return a.rank() < b.rank();
    }
};

/**
 * Policy-ranked index over queued entries, in one of two shapes:
 *
 *  - ring (FIFO): a rank-sorted deque with lazy tombstones. On the
 *    scheduler's path pushes arrive in nondecreasing (arrival, id)
 *    order, so insertion is an O(1) append and the head is the front;
 *    mid-queue removals (batch followers) just die in the live table
 *    and are skipped — and periodically compacted away — when the
 *    front reaches them. Out-of-order pushes (unit tests) fall back to
 *    a sorted insert.
 *  - tree (SJF/EDF): an ordered set keyed (policy key, arrival, id)
 *    with O(log depth) insert/erase and eager deletion (no
 *    tombstones). Chosen over a d-ary heap because batch formation
 *    and eligibility must traverse entries *in rank order under
 *    per-item predicates* — a heap only exposes its top.
 */
struct OrderIndex
{
    bool treeMode = false;
    std::deque<Entry> ring;
    std::set<Entry, RankLess> tree;
    std::size_t liveCount = 0;

    void
    reset(bool tree_mode)
    {
        treeMode = tree_mode;
        ring.clear();
        tree.clear();
        liveCount = 0;
    }
};

} // namespace

struct AdmissionQueue::Impl
{
    struct Stored
    {
        Request r;
        std::uint64_t seq = 0;
    };

    std::unordered_map<std::uint64_t, Stored> live;
    QueuePolicy indexedPolicy = QueuePolicy::Fifo;
    std::uint64_t seqCounter = 0;

    OrderIndex global;
    std::map<std::pair<std::uint32_t, std::uint32_t>, OrderIndex> classes;

    bool
    alive(const Entry &e) const
    {
        const auto it = live.find(e.id);
        return it != live.end() && it->second.seq == e.seq;
    }

    Entry
    entryOf(const Stored &s) const
    {
        return Entry{policyKey(indexedPolicy, s.r), s.r.arrivalCycle,
                     s.r.id, s.seq};
    }

    OrderIndex &
    classOf(const Request &r)
    {
        auto it = classes.find({r.networkId, r.sizeBucket});
        if (it == classes.end())
            it = classes
                     .emplace(std::make_pair(r.networkId, r.sizeBucket),
                              OrderIndex{})
                     .first;
        if (it->second.ring.empty() && it->second.tree.empty())
            it->second.treeMode = global.treeMode;
        return it->second;
    }

    void
    indexInsert(OrderIndex &ix, const Entry &e)
    {
        if (ix.treeMode) {
            ix.tree.insert(e);
        } else {
            if (ix.ring.empty() || !(e.rank() < ix.ring.back().rank())) {
                ix.ring.push_back(e);
            } else {
                // Out-of-order push (tests): sorted insert keeps the
                // ring a valid rank order at O(depth) for this push.
                const auto pos = std::lower_bound(
                    ix.ring.begin(), ix.ring.end(), e, RankLess{});
                ix.ring.insert(pos, e);
            }
        }
        ix.liveCount += 1;
        maybeCompact(ix);
    }

    /** Remove one live entry from an index. Ring mode is lazy: the
     *  entry dies in the live table and is skipped/compacted later. */
    void
    indexErase(OrderIndex &ix, const Entry &e)
    {
        if (ix.treeMode)
            ix.tree.erase(e);
        simAssert(ix.liveCount > 0, "index liveCount underflow");
        ix.liveCount -= 1;
    }

    /** Bound tombstone buildup: rebuild a ring once more than half of
     *  it is dead. Runs only from push paths, never while a traversal
     *  holds ring positions. */
    void
    maybeCompact(OrderIndex &ix)
    {
        if (ix.treeMode || ix.ring.size() < 2 * ix.liveCount + 64)
            return;
        std::deque<Entry> keep;
        for (const auto &e : ix.ring)
            if (alive(e))
                keep.push_back(e);
        tombstones += ix.ring.size() - keep.size();
        ix.ring.swap(keep);
    }

    /** Drop the index keys and rebuild under a new policy. Only unit
     *  tests mix policies on one queue; the scheduler's single policy
     *  never triggers this after the first call. */
    void
    ensureIndexed(QueuePolicy policy)
    {
        if (policy == indexedPolicy && ranked)
            return;
        indexedPolicy = policy;
        ranked = true;
        const bool tree_mode = policy != QueuePolicy::Fifo;
        global.reset(tree_mode);
        classes.clear();
        std::vector<Entry> entries;
        entries.reserve(live.size());
        for (const auto &kv : live)
            entries.push_back(entryOf(kv.second));
        std::sort(entries.begin(), entries.end(), RankLess{});
        for (const Entry &e : entries) {
            indexInsert(global, e);
            indexInsert(classOf(live.at(e.id).r), e);
        }
    }

    void
    insertItem(const Request &r)
    {
        const std::uint64_t seq = ++seqCounter;
        const auto ins = live.emplace(r.id, Stored{r, seq});
        simAssert(ins.second,
                  "admission queue requires unique request ids");
        const Entry e = entryOf(ins.first->second);
        indexInsert(global, e);
        indexInsert(classOf(r), e);
    }

    /** Full removal (live table + both indexes) by id. */
    void
    removeById(std::uint64_t id)
    {
        const auto it = live.find(id);
        simAssert(it != live.end(), "removal of unqueued request");
        const Entry e = entryOf(it->second);
        indexErase(global, e);
        indexErase(classOf(it->second.r), e);
        live.erase(it);
    }

    /** Physically drop dead entries at a ring's front so the head
     *  stays an O(1) read (every FIFO pop tombstones the front; batch
     *  followers leave interior tombstones for compaction). */
    void
    pruneFront(OrderIndex &ix)
    {
        if (ix.treeMode)
            return;
        while (!ix.ring.empty() && !alive(ix.ring.front())) {
            ix.ring.pop_front();
            tombstones += 1;
        }
    }

    /** First live entry in global rank order passing `pass`, or
     *  nullptr. Interior ring tombstones are skipped in place. */
    const Request *
    firstEligible(const std::function<bool(const Request &)> &pass)
    {
        if (global.treeMode) {
            for (const Entry &e : global.tree) {
                const Request &r = live.at(e.id).r;
                if (!pass || pass(r))
                    return &r;
            }
            return nullptr;
        }
        pruneFront(global);
        for (const Entry &e : global.ring) {
            if (!alive(e)) {
                tombstones += 1;
                continue;
            }
            const Request &r = live.at(e.id).r;
            if (!pass || pass(r))
                return &r;
        }
        return nullptr;
    }

    bool ranked = false; ///< indexes valid for indexedPolicy
    /** Dead ring entries stepped over or dropped (tombstonesWalked). */
    std::uint64_t tombstones = 0;
};

AdmissionQueue::AdmissionQueue(std::size_t max_depth)
    : impl(std::make_unique<Impl>()), maxDepth(max_depth)
{
}

AdmissionQueue::~AdmissionQueue() = default;
AdmissionQueue::AdmissionQueue(AdmissionQueue &&) noexcept = default;
AdmissionQueue &
AdmissionQueue::operator=(AdmissionQueue &&) noexcept = default;

std::size_t
AdmissionQueue::size() const
{
    return impl->live.size();
}

bool
AdmissionQueue::push(const Request &r)
{
    if (impl->live.size() >= maxDepth) {
        numDropped += 1;
        return false;
    }
    if (!impl->ranked)
        impl->ensureIndexed(impl->indexedPolicy);
    impl->insertItem(r);
    numAdmitted += 1;
    return true;
}

bool
AdmissionQueue::pushUncounted(const Request &r)
{
    if (impl->live.size() >= maxDepth)
        return false; // shed, but never a second `dropped`
    if (!impl->ranked)
        impl->ensureIndexed(impl->indexedPolicy);
    impl->insertItem(r);
    return true;
}

const Request &
AdmissionQueue::peek(QueuePolicy policy) const
{
    impl->ensureIndexed(policy);
    const Request *r = impl->firstEligible(nullptr);
    simAssert(r != nullptr, "peek on empty queue");
    return *r;
}

const Request *
AdmissionQueue::peekEligible(
    QueuePolicy policy,
    const std::function<bool(const Request &)> &excluded) const
{
    impl->ensureIndexed(policy);
    if (!excluded)
        return impl->firstEligible(nullptr);
    return impl->firstEligible(
        [&](const Request &r) { return !excluded(r); });
}

Request
AdmissionQueue::pop(QueuePolicy policy)
{
    impl->ensureIndexed(policy);
    const Request *r = impl->firstEligible(nullptr);
    simAssert(r != nullptr, "pop on empty queue");
    const Request out = *r;
    impl->removeById(out.id);
    return out;
}

std::vector<Request>
AdmissionQueue::popLedByBuckets(
    const Request &head, QueuePolicy policy,
    const std::vector<std::uint32_t> &buckets,
    const std::function<bool(const Request &, const Request &)> &extra,
    std::size_t max_count,
    const std::function<bool(const Request &)> &excluded)
{
    simAssert(max_count >= 1, "popLedByBuckets needs max_count >= 1");
    impl->ensureIndexed(policy);
    const Request lead = head;
    const auto stored = impl->live.find(lead.id);
    simAssert(stored != impl->live.end(),
              "popLedByBuckets head is not queued");

    std::vector<Request> out;
    out.reserve(max_count);
    out.push_back(stored->second.r);
    impl->removeById(lead.id);

    const auto wanted = [&](const Request &r) {
        return (!extra || extra(lead, r)) &&
               !(excluded && excluded(r));
    };

    // Candidate class sub-queues: (lead's network) x allowed buckets.
    // Deduplicated — two cursors over one sub-queue would invalidate
    // each other's iterators on erase. Each ring's dead prefix (the
    // members earlier batches took) is dropped here, so it is walked
    // once rather than once per formation.
    std::vector<OrderIndex *> cand;
    for (const std::uint32_t b : buckets) {
        const auto it = impl->classes.find({lead.networkId, b});
        if (it == impl->classes.end())
            continue;
        if (std::find(cand.begin(), cand.end(), &it->second) ==
            cand.end()) {
            impl->pruneFront(it->second);
            cand.push_back(&it->second);
        }
    }

    // K-way merge across the candidate classes in rank order. A
    // cursor only moves forward: entries it passes are dead, already
    // taken, or predicate-rejected — and predicates are fixed for the
    // call, so a rejected entry never becomes eligible again.
    struct Cursor
    {
        OrderIndex *ix;
        std::set<Entry, RankLess>::iterator ti;
        std::size_t ri = 0;
    };
    std::vector<Cursor> cursors;
    cursors.reserve(cand.size());
    for (OrderIndex *ix : cand)
        cursors.push_back(Cursor{ix, ix->tree.begin(), 0});

    while (out.size() < max_count) {
        Cursor *best = nullptr;
        for (auto &c : cursors) {
            // Advance to the cursor's next live entry.
            if (c.ix->treeMode) {
                if (c.ti == c.ix->tree.end())
                    continue;
            } else {
                while (c.ri < c.ix->ring.size() &&
                       !impl->alive(c.ix->ring[c.ri])) {
                    c.ri += 1;
                    impl->tombstones += 1;
                }
                if (c.ri >= c.ix->ring.size())
                    continue;
            }
            const Entry &e =
                c.ix->treeMode ? *c.ti : c.ix->ring[c.ri];
            if (best == nullptr) {
                best = &c;
                continue;
            }
            const Entry &b = best->ix->treeMode
                                 ? *best->ti
                                 : best->ix->ring[best->ri];
            if (e.rank() < b.rank())
                best = &c;
        }
        if (best == nullptr)
            break;
        const Entry e =
            best->ix->treeMode ? *best->ti : best->ix->ring[best->ri];
        const Request &r = impl->live.at(e.id).r;
        if (!wanted(r)) {
            if (best->ix->treeMode)
                ++best->ti;
            else
                best->ri += 1;
            continue;
        }
        out.push_back(r);
        if (best->ix->treeMode) {
            best->ti = best->ix->tree.erase(best->ti);
            best->ix->liveCount -= 1;
        } else {
            best->ix->liveCount -= 1;
            best->ri += 1;
        }
        // Global index: eager erase in tree mode, tombstone in ring.
        if (impl->global.treeMode)
            impl->global.tree.erase(e);
        impl->global.liveCount -= 1;
        impl->live.erase(e.id);
    }
    return out;
}

void
AdmissionQueue::visitClass(
    std::uint32_t network_id, std::uint32_t bucket,
    const std::function<bool(const Request &)> &fn) const
{
    if (!impl->ranked)
        impl->ensureIndexed(impl->indexedPolicy);
    const auto it = impl->classes.find({network_id, bucket});
    if (it == impl->classes.end())
        return;
    OrderIndex &ix = it->second;
    impl->pruneFront(ix);
    if (ix.treeMode) {
        for (const Entry &e : ix.tree)
            if (!fn(impl->live.at(e.id).r))
                return;
    } else {
        for (const Entry &e : ix.ring) {
            if (!impl->alive(e)) {
                impl->tombstones += 1;
                continue;
            }
            if (!fn(impl->live.at(e.id).r))
                return;
        }
    }
}

std::uint64_t
AdmissionQueue::tombstonesWalked() const
{
    return impl->tombstones;
}

} // namespace pointacc
