#include "runtime/map_cache.hpp"

#include <stdexcept>

#include "core/logging.hpp"

namespace pointacc {

std::string
toString(MapCacheEviction policy)
{
    switch (policy) {
      case MapCacheEviction::Lru: return "lru";
      case MapCacheEviction::Lfu: return "lfu";
    }
    return "?";
}

MapCache::MapCache(MapCacheConfig config) : cfg(config)
{
    if (cfg.enabled && cfg.capacityEntries < 1)
        throw std::invalid_argument(
            "map cache capacity must be >= 1 when enabled");
}

bool
MapCache::contains(const MapCacheKey &key) const
{
    return entries.find(key) != entries.end();
}

void
MapCache::recordHit(const MapCacheKey &key)
{
    const auto it = entries.find(key);
    simAssert(it != entries.end(), "recordHit on a non-resident key");
    touch(key, it->second, true);
    counters.hits += 1;
    counters.bytesSaved += it->second.entry.mapBytes;
}

void
MapCache::creditSavedCycles(std::uint64_t saved)
{
    counters.cyclesSaved += saved;
}

void
MapCache::recordMiss()
{
    counters.misses += 1;
}

void
MapCache::insert(const MapCacheKey &key, const MapCacheEntry &entry)
{
    const auto it = entries.find(key);
    if (it != entries.end()) {
        // Refresh, don't re-insert: two in-flight misses of one key
        // (e.g. the same frame dispatched to two instances before
        // either mapping finished) land here once each.
        it->second.entry = entry;
        touch(key, it->second, false);
        return;
    }
    if (entries.size() >= cfg.capacityEntries)
        evictOne();
    Node node;
    node.entry = entry;
    node.lastUse = ++tick;
    entries.emplace(key, node);
    order.insert(orderOf(key, node));
    counters.insertions += 1;
}

MapCache::OrderKey
MapCache::orderOf(const MapCacheKey &key, const Node &node) const
{
    const std::uint64_t rank =
        cfg.eviction == MapCacheEviction::Lfu ? node.uses : 0;
    return OrderKey(rank, node.lastUse, key);
}

void
MapCache::touch(const MapCacheKey &key, Node &node, bool hit)
{
    order.erase(orderOf(key, node));
    node.lastUse = ++tick;
    if (hit)
        node.uses += 1;
    order.insert(orderOf(key, node));
}

void
MapCache::evictOne()
{
    simAssert(!order.empty(), "evicting from an empty map cache");
    const auto victim = order.begin();
    entries.erase(std::get<2>(*victim));
    order.erase(victim);
    counters.evictions += 1;
}

} // namespace pointacc
