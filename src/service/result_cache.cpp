#include "service/result_cache.h"

#include <algorithm>
#include <functional>

namespace accpar::service {

ResultCache::ResultCache(std::size_t capacity, std::size_t shards)
    : _capacity(capacity)
{
    shards = std::clamp<std::size_t>(shards, 1, 64);
    // A shard never holds more than its share (rounded up), so the
    // global entry count stays within capacity + shards - 1 of the
    // budget while keeping shards fully independent.
    _shardCapacity =
        capacity == 0 ? 0 : (capacity + shards - 1) / shards;
    _shards.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        _shards.push_back(std::make_unique<Shard>());
}

ResultCache::Shard &
ResultCache::shardFor(const std::string &key)
{
    const std::size_t hash = std::hash<std::string>{}(key);
    return *_shards[hash % _shards.size()];
}

std::shared_ptr<const util::Json>
ResultCache::lookup(const std::string &key)
{
    if (_capacity == 0) {
        _misses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    Shard &shard = shardFor(key);
    const util::LockGuard lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        _misses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    _hits.fetch_add(1, std::memory_order_relaxed);
    return it->second->payload;
}

void
ResultCache::insert(const std::string &key,
                    std::shared_ptr<const util::Json> payload)
{
    if (_capacity == 0)
        return;
    Shard &shard = shardFor(key);
    const util::LockGuard lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        it->second->payload = std::move(payload);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return;
    }
    shard.lru.push_front(Entry{key, std::move(payload)});
    shard.index[key] = shard.lru.begin();
    _insertions.fetch_add(1, std::memory_order_relaxed);
    _entries.fetch_add(1, std::memory_order_relaxed);
    evictLocked(shard);
}

void
ResultCache::evictLocked(Shard &shard)
{
    while (shard.lru.size() > _shardCapacity) {
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        _evictions.fetch_add(1, std::memory_order_relaxed);
        _entries.fetch_sub(1, std::memory_order_relaxed);
    }
}

ResultCacheStats
ResultCache::stats() const
{
    ResultCacheStats stats;
    stats.hits = _hits.load(std::memory_order_relaxed);
    stats.misses = _misses.load(std::memory_order_relaxed);
    stats.insertions = _insertions.load(std::memory_order_relaxed);
    stats.evictions = _evictions.load(std::memory_order_relaxed);
    const std::int64_t entries =
        _entries.load(std::memory_order_relaxed);
    stats.entries =
        entries < 0 ? 0 : static_cast<std::size_t>(entries);
    return stats;
}

std::size_t
ResultCache::size() const
{
    const std::int64_t entries =
        _entries.load(std::memory_order_relaxed);
    return entries < 0 ? 0 : static_cast<std::size_t>(entries);
}

void
ResultCache::clear()
{
    for (const auto &shard : _shards) {
        const util::LockGuard lock(shard->mutex);
        _entries.fetch_sub(
            static_cast<std::int64_t>(shard->lru.size()),
            std::memory_order_relaxed);
        shard->lru.clear();
        shard->index.clear();
    }
}

} // namespace accpar::service
