/**
 * @file
 * Tests for the HFI region types' shape rules (§3.2): power-of-two
 * implicit regions, 64 KiB-granular large explicit regions, and
 * byte-granular small explicit regions that must not span a 4 GiB
 * boundary.
 */

#include <gtest/gtest.h>

#include "core/region.h"

namespace
{

using namespace hfi::core;

TEST(RegionLayout, RegisterMapMatchesAppendix)
{
    // Appendix A.1: (0-1) code, (2-5) implicit data, (6-9) explicit.
    EXPECT_EQ(kNumRegions, 10u);
    EXPECT_EQ(regionKindOf(0), RegionKind::Code);
    EXPECT_EQ(regionKindOf(1), RegionKind::Code);
    EXPECT_EQ(regionKindOf(2), RegionKind::ImplicitData);
    EXPECT_EQ(regionKindOf(5), RegionKind::ImplicitData);
    EXPECT_EQ(regionKindOf(6), RegionKind::ExplicitData);
    EXPECT_EQ(regionKindOf(9), RegionKind::ExplicitData);
}

TEST(ImplicitRegion, WellFormedRequiresPow2Mask)
{
    ImplicitDataRegion r;
    r.basePrefix = 0x10000;
    r.lsbMask = 0xffff;
    EXPECT_TRUE(r.wellFormed());
    r.lsbMask = 0xfffe; // not 2^k - 1
    EXPECT_FALSE(r.wellFormed());
    r.lsbMask = 0x10000; // not 2^k - 1 either
    EXPECT_FALSE(r.wellFormed());
}

TEST(ImplicitRegion, WellFormedRequiresAlignedBase)
{
    ImplicitDataRegion r;
    r.lsbMask = 0xfff;
    r.basePrefix = 0x1000;
    EXPECT_TRUE(r.wellFormed());
    r.basePrefix = 0x1800; // bits inside the mask
    EXPECT_FALSE(r.wellFormed());
}

TEST(ImplicitRegion, ContainsIsPrefixMatch)
{
    ImplicitDataRegion r;
    r.basePrefix = 0x7fff8000;
    r.lsbMask = 0x7fff;
    EXPECT_TRUE(r.contains(0x7fff8000));
    EXPECT_TRUE(r.contains(0x7fffffff));
    EXPECT_FALSE(r.contains(0x7fff7fff));
    EXPECT_FALSE(r.contains(0x80000000));
}

TEST(ImplicitCodeRegion, SameRulesAsData)
{
    ImplicitCodeRegion r;
    r.basePrefix = 0x400000;
    r.lsbMask = 0xffff;
    EXPECT_TRUE(r.wellFormed());
    EXPECT_TRUE(r.contains(0x40ffff));
    EXPECT_FALSE(r.contains(0x410000));
}

TEST(ImplicitRegion, ZeroMaskIsSingleByte)
{
    ImplicitDataRegion r;
    r.basePrefix = 0x1234;
    r.lsbMask = 0;
    EXPECT_TRUE(r.wellFormed());
    EXPECT_TRUE(r.contains(0x1234));
    EXPECT_FALSE(r.contains(0x1235));
}

TEST(LargeRegion, Requires64KAlignment)
{
    ExplicitDataRegion r;
    r.isLargeRegion = true;
    r.baseAddress = 3 << 16;
    r.bound = 2 << 16;
    EXPECT_TRUE(r.wellFormed());
    r.baseAddress += 1;
    EXPECT_FALSE(r.wellFormed());
    r.baseAddress -= 1;
    r.bound += 4096;
    EXPECT_FALSE(r.wellFormed());
}

TEST(LargeRegion, BoundCapIs2To48)
{
    ExplicitDataRegion r;
    r.isLargeRegion = true;
    r.baseAddress = 0;
    r.bound = kLargeRegionMaxBound;
    EXPECT_TRUE(r.wellFormed());
    r.bound += kLargeRegionGrain;
    EXPECT_FALSE(r.wellFormed());
}

TEST(SmallRegion, ByteGranular)
{
    ExplicitDataRegion r;
    r.baseAddress = 0x12345;
    r.bound = 1234;
    EXPECT_TRUE(r.wellFormed());
}

TEST(SmallRegion, BoundCapIs4GiB)
{
    ExplicitDataRegion r;
    r.baseAddress = 0;
    r.bound = kSmallRegionMaxBound;
    EXPECT_TRUE(r.wellFormed());
    r.bound += 1;
    EXPECT_FALSE(r.wellFormed());
}

TEST(SmallRegion, MustNotSpan4GiBBoundary)
{
    ExplicitDataRegion r;
    r.baseAddress = (1ULL << 32) - 4096;
    r.bound = 8192; // crosses the 4 GiB line
    EXPECT_FALSE(r.wellFormed());
    r.bound = 4096; // ends exactly on the line: allowed
    EXPECT_TRUE(r.wellFormed());
    r.baseAddress = 1ULL << 32; // starts on the line
    r.bound = 4096;
    EXPECT_TRUE(r.wellFormed());
}

TEST(SmallRegion, EmptyIsAlwaysWellFormed)
{
    ExplicitDataRegion r;
    r.baseAddress = 0xdeadbeef;
    r.bound = 0;
    EXPECT_TRUE(r.wellFormed());
}

TEST(SmallRegion, WrapAroundRejected)
{
    ExplicitDataRegion r;
    r.baseAddress = UINT64_MAX - 100;
    r.bound = 200;
    EXPECT_FALSE(r.wellFormed());
}

/** Property sweep: small regions accept exactly the non-spanning set. */
class SmallRegionBoundarySweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SmallRegionBoundarySweep, SpanRule)
{
    const std::uint64_t base = GetParam();
    ExplicitDataRegion r;
    r.baseAddress = base;
    r.bound = 1 << 20;
    const std::uint64_t last = base + r.bound - 1;
    const bool spans = (base >> 32) != (last >> 32) &&
                       (base + r.bound) % (1ULL << 32) != 0;
    EXPECT_EQ(r.wellFormed(), !spans);
}

INSTANTIATE_TEST_SUITE_P(
    Bases, SmallRegionBoundarySweep,
    ::testing::Values(0ULL, 4096ULL, (1ULL << 32) - (1ULL << 20),
                      (1ULL << 32) - (1ULL << 19), (1ULL << 32),
                      (3ULL << 32) - 17, (1ULL << 40) + 123));

} // namespace
