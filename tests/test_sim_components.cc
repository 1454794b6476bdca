/**
 * @file
 * Tests for the µ-architectural components: the cache (LRU, flush, the
 * non-perturbing probe the Spectre measurement uses) in both its L1
 * and its dtb geometry, and the branch predictor (2-bit PHT training —
 * the attack's lever — and RSB).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <stdexcept>

#include "sim/branch_predictor.h"
#include "sim/cache.h"
#include "sim/cpu_config.h"
#include "splitmix.h"

namespace
{

using namespace hfi::sim;

TEST(Cache, MissThenHit)
{
    Cache cache;
    const auto miss = cache.access(0x1000);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.latency, cache.config().missLatency);
    const auto hit = cache.access(0x1000);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.latency, cache.config().hitLatency);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, SameLineSharesEntry)
{
    Cache cache;
    cache.access(0x1000);
    EXPECT_TRUE(cache.access(0x103f).hit); // same 64 B line
    EXPECT_FALSE(cache.access(0x1040).hit);
}

TEST(Cache, ProbeDoesNotPerturb)
{
    Cache cache;
    EXPECT_FALSE(cache.probe(0x1000).hit);
    EXPECT_FALSE(cache.contains(0x1000)); // probe did not fill
    cache.access(0x1000);
    EXPECT_TRUE(cache.probe(0x1000).hit);
    EXPECT_EQ(cache.hits(), 0u); // probes aren't counted as accesses
}

TEST(Cache, FlushEvictsLine)
{
    Cache cache;
    cache.access(0x2000);
    ASSERT_TRUE(cache.contains(0x2000));
    cache.flush(0x2010); // same line, any offset
    EXPECT_FALSE(cache.contains(0x2000));
}

TEST(Cache, LruEvictionWithinSet)
{
    // 8-way: the 9th distinct tag mapping to one set evicts the LRU.
    CacheConfig config;
    Cache cache(config);
    const unsigned sets = static_cast<unsigned>(
        config.sizeBytes / (config.ways * config.lineBytes));
    const std::uint64_t set_stride =
        static_cast<std::uint64_t>(sets) * config.lineBytes;

    for (unsigned way = 0; way < 9; ++way)
        cache.access(0x10000 + way * set_stride);
    EXPECT_FALSE(cache.contains(0x10000)); // oldest evicted
    EXPECT_TRUE(cache.contains(0x10000 + 8 * set_stride));
    EXPECT_TRUE(cache.contains(0x10000 + 1 * set_stride));
}

TEST(Cache, TouchRefreshesLru)
{
    CacheConfig config;
    Cache cache(config);
    const unsigned sets = static_cast<unsigned>(
        config.sizeBytes / (config.ways * config.lineBytes));
    const std::uint64_t set_stride =
        static_cast<std::uint64_t>(sets) * config.lineBytes;

    for (unsigned way = 0; way < 8; ++way)
        cache.access(0x10000 + way * set_stride);
    cache.access(0x10000); // refresh way 0
    cache.access(0x10000 + 8 * set_stride);
    EXPECT_TRUE(cache.contains(0x10000));
    EXPECT_FALSE(cache.contains(0x10000 + 1 * set_stride)); // now LRU
}

TEST(Cache, FlushAll)
{
    Cache cache;
    cache.access(0x1000);
    cache.access(0x2000);
    cache.flushAll();
    EXPECT_FALSE(cache.contains(0x1000));
    EXPECT_FALSE(cache.contains(0x2000));
}

TEST(Cache, RejectsNonPowerOfTwoGeometry)
{
    // 48 B lines.
    EXPECT_THROW(Cache(CacheConfig{48 * 8 * 64, 8, 48, 4, 80}),
                 std::invalid_argument);
    // 64 B lines in 8 ways, but 48 sets.
    EXPECT_THROW(Cache(CacheConfig{48 * 8 * 64, 8, 64, 4, 80}),
                 std::invalid_argument);
    // No sets at all.
    EXPECT_THROW(Cache(CacheConfig{64, 8, 64, 4, 80}),
                 std::invalid_argument);
    EXPECT_NO_THROW(Cache{CacheConfig{}});
    EXPECT_NO_THROW(Cache{kDtbConfig});
}

TEST(Dtb, MissFillsHitRefreshes)
{
    Cache dtb(kDtbConfig);
    const auto miss = dtb.access(0x1234);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.latency, 20u); // page walk
    const auto hit = dtb.access(0x1000); // same 4 KiB page
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.latency, 0u); // hidden behind the parallel lookup
    EXPECT_FALSE(dtb.access(0x2000).hit);
    EXPECT_EQ(dtb.hits(), 1u);
    EXPECT_EQ(dtb.misses(), 2u);
}

TEST(Dtb, CapacityEviction)
{
    Cache dtb(kDtbConfig);
    const std::uint64_t entries = kDtbConfig.ways;
    for (std::uint64_t p = 0; p <= entries; ++p)
        dtb.access(p << 12);
    EXPECT_FALSE(dtb.contains(0)); // LRU evicted
    EXPECT_TRUE(dtb.contains(1ULL << 12));
    EXPECT_TRUE(dtb.contains(entries << 12));
}

TEST(Dtb, FlushAll)
{
    Cache dtb(kDtbConfig);
    dtb.access(0x5000);
    dtb.flushAll();
    EXPECT_FALSE(dtb.contains(0x5000));
}

TEST(Dtb, MatchesListLruReference)
{
    // The dtb geometry is the one fully-associative Cache: one set, so
    // every page competes for the same 64 ways. A most-recent-first
    // list is the obviously correct LRU; drive both with one seeded
    // stream over more pages than ways, with immediate repeats so the
    // MRU filter, scan hits and evictions all occur.
    Cache dtb(kDtbConfig);
    const std::size_t ways = kDtbConfig.ways;
    std::list<std::uint64_t> lru; // front = most recently used page
    std::uint64_t rng = 0xd7b0'2026'1019ULL;
    std::uint64_t page = 0;
    std::uint64_t repeats = 0;
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    for (int i = 0; i < 10'000; ++i) {
        if (hfi::test::nextRandom(rng) % 4 == 0)
            ++repeats;
        else
            page = hfi::test::nextRandom(rng) % 96;
        const std::uint64_t addr =
            (page << 12) | (hfi::test::nextRandom(rng) & 0xfff);

        const auto it = std::find(lru.begin(), lru.end(), page);
        const bool expect_hit = it != lru.end();
        if (expect_hit) {
            lru.erase(it);
            ++hits;
        } else if (lru.size() == ways) {
            lru.pop_back();
            ++evictions;
        }
        lru.push_front(page);

        const CacheAccess got = dtb.access(addr);
        ASSERT_EQ(got.hit, expect_hit) << "access " << i;
        ASSERT_EQ(got.latency, expect_hit ? kDtbConfig.hitLatency
                                          : kDtbConfig.missLatency);
    }
    EXPECT_EQ(dtb.hits(), hits);
    EXPECT_EQ(dtb.misses(), 10'000 - hits);
    for (std::uint64_t p = 0; p < 96; ++p)
        EXPECT_EQ(dtb.contains(p << 12),
                  std::find(lru.begin(), lru.end(), p) != lru.end())
            << "page " << p;
    // The stream exercised every path it was built for.
    EXPECT_GT(repeats, 1000u);
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(hits - repeats, 1000u); // hits found by the way scan
}

TEST(Predictor, PhtTrainsTowardTaken)
{
    BranchPredictor bp;
    const std::uint64_t pc = 0x400100;
    // Counters start weakly-not-taken.
    EXPECT_FALSE(bp.predictDirection(pc));
    bp.updateDirection(pc, true);
    bp.updateDirection(pc, true);
    EXPECT_TRUE(bp.predictDirection(pc));
    // Hysteresis: one not-taken does not flip a strongly-taken counter.
    bp.updateDirection(pc, true);
    bp.updateDirection(pc, false);
    EXPECT_TRUE(bp.predictDirection(pc));
    bp.updateDirection(pc, false);
    bp.updateDirection(pc, false);
    EXPECT_FALSE(bp.predictDirection(pc));
}

TEST(Predictor, PhtIsTheSpectreTrainingLever)
{
    // The attack's exact sequence: repeated not-taken outcomes drive
    // the bounds-check branch to predict not-taken (fall into the
    // access) even when the attacker's input would take it.
    BranchPredictor bp;
    const std::uint64_t branch_pc = 0x400200;
    for (int i = 0; i < 8; ++i)
        bp.updateDirection(branch_pc, false);
    EXPECT_FALSE(bp.predictDirection(branch_pc));
}

TEST(Predictor, RsbLifo)
{
    BranchPredictor bp;
    bp.pushReturn(0x111);
    bp.pushReturn(0x222);
    EXPECT_EQ(bp.popReturn(), 0x222u);
    EXPECT_EQ(bp.popReturn(), 0x111u);
    EXPECT_EQ(bp.popReturn(), 0u); // empty
}

TEST(Predictor, RsbWrapsAtDepth)
{
    BranchPredictor bp;
    const std::uint64_t depth = BranchPredictor::kRsbDepth;
    for (std::uint64_t i = 1; i <= depth + 2; ++i)
        bp.pushReturn(i * 0x100);
    // The newest `depth` returns pop in LIFO order...
    for (std::uint64_t i = depth + 2; i > 2; --i)
        EXPECT_EQ(bp.popReturn(), i * 0x100);
    // ...and the two oldest were overwritten by the two newest.
    EXPECT_EQ(bp.popReturn(), (depth + 2) * 0x100);
    EXPECT_EQ(bp.popReturn(), (depth + 1) * 0x100);
}

} // namespace
