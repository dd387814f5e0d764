/**
 * @file
 * Sharded cross-request result cache for the planning service.
 *
 * Maps a canonical plan-request key (core::planRequestCanonicalKey) to
 * the fully rendered response payload, so a repeated query is answered
 * without re-running the hierarchical search. Payloads are immutable
 * and shared: a hit hands out a reference, not a copy of the DOM, and
 * stays valid after the entry is evicted. Keys are compared as full
 * strings — the canonical key is exact, so a hit is guaranteed to be
 * the byte-identical payload a fresh solve would have produced
 * (plans are deterministic for any jobs value).
 *
 * The table is split into independently locked shards (selected by key
 * hash) so concurrent workers rarely contend; each shard maintains its
 * own LRU list and evicts least-recently-used entries once the shard's
 * share of the global capacity is exceeded.
 */

#ifndef ACCPAR_SERVICE_RESULT_CACHE_H
#define ACCPAR_SERVICE_RESULT_CACHE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/json.h"
#include "util/sync.h"

namespace accpar::service {

/** Cache effectiveness counters. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;

    double hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/** Sharded LRU map of canonical request key -> response payload. */
class ResultCache
{
  public:
    /**
     * @p capacity  total entry budget across all shards (0 disables
     *              caching: every lookup misses, inserts are dropped).
     * @p shards    lock shards; clamped to [1, 64].
     */
    explicit ResultCache(std::size_t capacity, std::size_t shards = 8);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** Returns the cached payload (null on a miss) and refreshes its
     *  recency. */
    std::shared_ptr<const util::Json> lookup(const std::string &key);

    /** Inserts (or refreshes) @p key; evicts LRU entries as needed. */
    void insert(const std::string &key,
                std::shared_ptr<const util::Json> payload);

    ResultCacheStats stats() const;
    std::size_t size() const;
    std::size_t capacity() const { return _capacity; }
    std::size_t shardCount() const { return _shards.size(); }
    void clear();

  private:
    struct Entry
    {
        std::string key;
        std::shared_ptr<const util::Json> payload;
    };

    struct Shard
    {
        mutable util::Mutex mutex{"ResultCache::Shard::mutex"};
        /** Front = most recently used. */
        std::list<Entry> lru ACCPAR_GUARDED_BY(mutex);
        std::unordered_map<std::string, std::list<Entry>::iterator>
            index ACCPAR_GUARDED_BY(mutex);
    };

    Shard &shardFor(const std::string &key);
    /** Evicts LRU entries past the shard budget (shard lock held). */
    void evictLocked(Shard &shard) ACCPAR_REQUIRES(shard.mutex);

    std::size_t _capacity;
    std::size_t _shardCapacity;
    std::vector<std::unique_ptr<Shard>> _shards;
    mutable std::atomic<std::uint64_t> _hits{0};
    mutable std::atomic<std::uint64_t> _misses{0};
    std::atomic<std::uint64_t> _insertions{0};
    std::atomic<std::uint64_t> _evictions{0};
    std::atomic<std::int64_t> _entries{0};
};

} // namespace accpar::service

#endif // ACCPAR_SERVICE_RESULT_CACHE_H
