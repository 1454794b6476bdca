/**
 * @file
 * Tests for the virtual address-space reservation bookkeeping — the
 * substrate behind the paper's §2 / §6.3.2 virtual-memory-exhaustion
 * arguments.
 */

#include <gtest/gtest.h>

#include "vm/address_space.h"

namespace
{

using hfi::vm::AddressSpace;
using hfi::vm::alignDown;
using hfi::vm::alignUp;
using hfi::vm::kPageSize;

TEST(AlignHelpers, DownAndUp)
{
    EXPECT_EQ(alignDown(0x1234, 0x1000), 0x1000u);
    EXPECT_EQ(alignUp(0x1234, 0x1000), 0x2000u);
    EXPECT_EQ(alignDown(0x1000, 0x1000), 0x1000u);
    EXPECT_EQ(alignUp(0x1000, 0x1000), 0x1000u);
    EXPECT_EQ(alignUp(0, 64), 0u);
}

TEST(AddressSpace, UsableBytesMatchVaBits)
{
    AddressSpace space(47);
    // 128 TiB minus the reserved low megabyte.
    EXPECT_EQ(space.usableBytes(), (1ULL << 47) - (1ULL << 20));
    EXPECT_EQ(space.vaBits(), 47u);
}

TEST(AddressSpace, ReserveReturnsAlignedDisjointRanges)
{
    AddressSpace space;
    auto a = space.reserve(1 << 20, 1 << 16);
    auto b = space.reserve(1 << 20, 1 << 16);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a % (1 << 16), 0u);
    EXPECT_EQ(*b % (1 << 16), 0u);
    EXPECT_NE(*a, *b);
    // Disjoint: no byte of b inside a.
    EXPECT_TRUE(*b >= *a + (1 << 20) || *a >= *b + (1 << 20));
}

TEST(AddressSpace, ConsecutiveReservationsAreAdjacent)
{
    // First-fit allocation: consecutive same-size reservations pack
    // back-to-back — the property HFI's batched-madvise teardown needs.
    AddressSpace space;
    auto a = space.reserve(1 << 16, 1 << 16);
    auto b = space.reserve(1 << 16, 1 << 16);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*b, *a + (1 << 16));
}

TEST(AddressSpace, ReserveTracksTotals)
{
    AddressSpace space;
    EXPECT_EQ(space.reservedBytes(), 0u);
    space.reserve(kPageSize);
    space.reserve(3 * kPageSize);
    EXPECT_EQ(space.reservedBytes(), 4 * kPageSize);
}

TEST(AddressSpace, ReleaseMakesSpaceReusable)
{
    AddressSpace space;
    auto a = space.reserve(1 << 20);
    ASSERT_TRUE(a);
    EXPECT_TRUE(space.release(*a));
    EXPECT_EQ(space.reservedBytes(), 0u);
    auto b = space.reserve(1 << 20);
    ASSERT_TRUE(b);
    EXPECT_EQ(*a, *b); // first fit reuses the hole
}

TEST(AddressSpace, ReleaseUnknownBaseFails)
{
    AddressSpace space;
    EXPECT_FALSE(space.release(0xdead000));
    auto a = space.reserve(kPageSize);
    ASSERT_TRUE(a);
    // Mid-range addresses are not valid release handles.
    EXPECT_FALSE(space.release(*a + 1));
}

TEST(AddressSpace, IsReservedAndRangeAt)
{
    AddressSpace space;
    auto a = space.reserve(4 * kPageSize);
    ASSERT_TRUE(a);
    EXPECT_TRUE(space.isReserved(*a));
    EXPECT_TRUE(space.isReserved(*a + 4 * kPageSize - 1));
    EXPECT_FALSE(space.isReserved(*a + 4 * kPageSize));
    EXPECT_EQ(space.rangeAt(*a), 4 * kPageSize);
    EXPECT_FALSE(space.rangeAt(*a + kPageSize).has_value());
}

TEST(AddressSpace, ExhaustionReturnsNullopt)
{
    // A tiny 26-bit space: 64 MiB minus the low megabyte.
    AddressSpace space(26);
    const std::uint64_t chunk = 1 << 20;
    unsigned got = 0;
    while (space.reserve(chunk))
        ++got;
    EXPECT_EQ(got, 63u);
    EXPECT_FALSE(space.reserve(chunk).has_value());
    // Small allocations may still fit nothing once full of 1 MiB chunks.
    EXPECT_FALSE(space.reserve(chunk, chunk).has_value());
}

TEST(AddressSpace, GuardPagesVsHfiCapacityRatio)
{
    // The §6.3.2 argument in miniature: 8 GiB footprints exhaust a
    // 47-bit space after ~16K sandboxes, heap-only footprints after
    // vastly more.
    AddressSpace space(47);
    const std::uint64_t usable = space.usableBytes();
    EXPECT_EQ(usable / (8ULL << 30), 16383u);
    EXPECT_EQ(usable / (1ULL << 30), 131071u);
}

} // namespace
