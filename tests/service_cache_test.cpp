/**
 * @file
 * Sharded LRU result cache and metrics registry tests
 * (service/result_cache.h, service/metrics.h). The concurrency cases
 * double as TSan targets: many threads hammer one cache / one
 * histogram at once.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/metrics.h"
#include "service/result_cache.h"
#include "util/json.h"

namespace {

using namespace accpar;
using service::LatencyHistogram;
using service::Metrics;
using service::ResultCache;

std::shared_ptr<const util::Json>
payload(int value)
{
    util::Json doc = util::Json::Object{};
    doc["value"] = value;
    return std::make_shared<const util::Json>(std::move(doc));
}

TEST(ResultCache, MissThenHit)
{
    ResultCache cache(8);
    EXPECT_FALSE(cache.lookup("a"));
    cache.insert("a", payload(1));
    const auto hit = cache.lookup("a");
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->at("value").asInt(), 1);

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, InsertRefreshesExistingKey)
{
    ResultCache cache(8);
    cache.insert("a", payload(1));
    cache.insert("a", payload(2));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.lookup("a")->at("value").asInt(), 2);
}

TEST(ResultCache, EvictsLeastRecentlyUsed)
{
    // One shard so the LRU order is global and deterministic.
    ResultCache cache(2, 1);
    cache.insert("a", payload(1));
    cache.insert("b", payload(2));
    ASSERT_TRUE(cache.lookup("a")); // refresh "a"
    cache.insert("c", payload(3));  // evicts "b"

    EXPECT_TRUE(cache.lookup("a"));
    EXPECT_FALSE(cache.lookup("b"));
    EXPECT_TRUE(cache.lookup("c"));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.size(), 2u);
}

TEST(ResultCache, ZeroCapacityDisablesCaching)
{
    ResultCache cache(0);
    cache.insert("a", payload(1));
    EXPECT_FALSE(cache.lookup("a"));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, ShardCountIsClamped)
{
    EXPECT_EQ(ResultCache(16, 0).shardCount(), 1u);
    EXPECT_EQ(ResultCache(16, 4).shardCount(), 4u);
    EXPECT_EQ(ResultCache(16, 1000).shardCount(), 64u);
}

TEST(ResultCache, ClearEmptiesEveryShard)
{
    ResultCache cache(64, 8);
    for (int i = 0; i < 32; ++i)
        cache.insert("key" + std::to_string(i), payload(i));
    EXPECT_GT(cache.size(), 0u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup("key0"));
}

TEST(ResultCache, HeldPayloadOutlivesEvictionAndClear)
{
    // A hit shares the cached payload instead of copying it, so a
    // payload handed out must stay valid and unchanged while another
    // thread evicts its entry or clears the cache (a TSan target).
    ResultCache cache(2, 1);
    cache.insert("a", payload(1));
    const std::shared_ptr<const util::Json> held = cache.lookup("a");
    ASSERT_TRUE(held);
    const std::string before = held->dump();

    std::thread writer([&cache] {
        for (int i = 0; i < 400; ++i) {
            cache.insert("k" + std::to_string(i), payload(i));
            if (i % 100 == 0)
                cache.clear();
        }
    });
    for (int i = 0; i < 400; ++i)
        EXPECT_EQ(held->dump(), before);
    writer.join();

    EXPECT_FALSE(cache.lookup("a"));
    EXPECT_EQ(held->at("value").asInt(), 1);
    EXPECT_EQ(held->dump(), before);
}

TEST(ResultCache, ConcurrentMixedLoadIsSafe)
{
    // 8 threads insert and look up overlapping key ranges; under TSan
    // this validates the per-shard locking and atomic counters.
    ResultCache cache(128, 8);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&cache, t] {
            for (int i = 0; i < 500; ++i) {
                const std::string key =
                    "key" + std::to_string((t * 13 + i) % 200);
                if (i % 3 == 0) {
                    cache.insert(key, payload(i));
                } else if (const auto hit = cache.lookup(key)) {
                    EXPECT_TRUE(hit->contains("value"));
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    const auto stats = cache.stats();
    // Per thread: 167 inserts (i % 3 == 0), 333 lookups; every lookup
    // is exactly one hit or one miss.
    EXPECT_EQ(stats.hits + stats.misses, 8u * 333u);
    EXPECT_GT(stats.insertions, 0u);
    EXPECT_LE(cache.size(), cache.capacity());
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneAndInRange)
{
    LatencyHistogram histogram;
    EXPECT_EQ(histogram.quantile(0.5), 0.0);
    for (int i = 1; i <= 1000; ++i)
        histogram.record(i * 1e-4); // 0.1ms .. 100ms
    EXPECT_EQ(histogram.count(), 1000u);
    EXPECT_NEAR(histogram.totalSeconds(), 50.05, 0.01);

    const double p50 = histogram.quantile(0.50);
    const double p95 = histogram.quantile(0.95);
    const double p99 = histogram.quantile(0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    // Log-bucketed estimates: within one bucket (~33%) of the truth.
    EXPECT_NEAR(p50, 0.05, 0.02);
    EXPECT_NEAR(p99, 0.099, 0.035);
}

TEST(LatencyHistogramTest, ExtremesLandInEdgeBuckets)
{
    LatencyHistogram histogram;
    histogram.record(0.0);    // below range -> first bucket
    histogram.record(1e9);    // above range -> overflow bucket
    histogram.record(-1.0);   // garbage input must not crash
    EXPECT_EQ(histogram.count(), 3u);
    EXPECT_GT(histogram.quantile(0.99), 100.0);
}

TEST(MetricsTest, SnapshotReflectsCounters)
{
    Metrics metrics;
    metrics.requestsTotal += 5;
    metrics.planRequests += 3;
    metrics.errors += 1;
    metrics.cacheHits += 2;
    metrics.cacheMisses += 2;
    metrics.queueDepth += 4;
    metrics.latency.record(0.01);

    const auto snapshot = metrics.snapshot();
    EXPECT_EQ(snapshot.requestsTotal, 5u);
    EXPECT_EQ(snapshot.planRequests, 3u);
    EXPECT_EQ(snapshot.errors, 1u);
    EXPECT_DOUBLE_EQ(snapshot.cacheHitRate(), 0.5);
    EXPECT_EQ(snapshot.queueDepth, 4);
    EXPECT_EQ(snapshot.latencyCount, 1u);

    const util::Json doc = snapshot.toJson();
    EXPECT_EQ(doc.at("requests").at("total").asInt(), 5);
    EXPECT_EQ(doc.at("requests").at("plan").asInt(), 3);
    EXPECT_DOUBLE_EQ(
        doc.at("result_cache").at("hit_rate").asNumber(), 0.5);
    EXPECT_EQ(doc.at("latency").at("count").asInt(), 1);
    EXPECT_NE(snapshot.toText().find("requests"), std::string::npos);
}

TEST(MetricsTest, ConcurrentRecordingIsLossless)
{
    Metrics metrics;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&metrics] {
            for (int i = 0; i < 1000; ++i) {
                ++metrics.requestsTotal;
                metrics.latency.record(1e-3);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(metrics.snapshot().requestsTotal, 8000u);
    EXPECT_EQ(metrics.latency.count(), 8000u);
}

} // namespace
