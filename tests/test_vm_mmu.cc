/**
 * @file
 * Tests for the Mmu: the modeled mmap/mprotect/madvise syscalls, their
 * virtual-time costs, and the calibration identities behind the §6.1
 * heap-growth and §6.3.1 teardown experiments.
 */

#include <gtest/gtest.h>

#include "vm/mmu.h"

namespace
{

using namespace hfi::vm;

class MmuTest : public ::testing::Test
{
  protected:
    VirtualClock clock;
    Mmu mmu{clock};
};

TEST_F(MmuTest, ReserveIsProtNone)
{
    auto base = mmu.mmap(8ULL << 30, PageProt::None);
    ASSERT_TRUE(base);
    EXPECT_EQ(mmu.access(*base, 8, false), AccessResult::NotMapped);
    EXPECT_EQ(mmu.stats().mmapCalls, 1u);
}

TEST_F(MmuTest, MprotectOpensAccess)
{
    auto base = mmu.mmap(1 << 20, PageProt::None);
    ASSERT_TRUE(base);
    mmu.mprotect(*base, 1 << 16, PageProt::ReadWrite);
    EXPECT_EQ(mmu.access(*base, 8, true), AccessResult::Ok);
    EXPECT_EQ(mmu.access(*base + (1 << 16), 8, false),
              AccessResult::NotMapped);
}

TEST_F(MmuTest, WriteToReadOnlyIsBadPermission)
{
    auto base = mmu.mmap(1 << 16, PageProt::Read);
    ASSERT_TRUE(base);
    EXPECT_EQ(mmu.access(*base, 8, false), AccessResult::Ok);
    EXPECT_EQ(mmu.access(*base, 8, true), AccessResult::BadPermission);
}

TEST_F(MmuTest, FetchNeedsExec)
{
    auto base = mmu.mmap(1 << 16, PageProt::ReadExec);
    ASSERT_TRUE(base);
    EXPECT_EQ(mmu.fetch(*base), AccessResult::Ok);
    auto data = mmu.mmap(1 << 16, PageProt::ReadWrite);
    ASSERT_TRUE(data);
    EXPECT_EQ(mmu.fetch(*data), AccessResult::BadPermission);
}

TEST_F(MmuTest, FirstTouchFaultsOnce)
{
    auto base = mmu.mmap(1 << 16, PageProt::ReadWrite);
    ASSERT_TRUE(base);
    EXPECT_EQ(mmu.stats().pageFaults, 0u);
    mmu.access(*base, 8, true);
    EXPECT_EQ(mmu.stats().pageFaults, 1u);
    mmu.access(*base + 16, 8, false);
    EXPECT_EQ(mmu.stats().pageFaults, 1u); // same page: no second fault
    mmu.access(*base + kPageSize, 8, false);
    EXPECT_EQ(mmu.stats().pageFaults, 2u);
}

TEST_F(MmuTest, StraddlingAccessTouchesBothPages)
{
    auto base = mmu.mmap(1 << 16, PageProt::ReadWrite);
    ASSERT_TRUE(base);
    mmu.access(*base + kPageSize - 4, 8, true);
    EXPECT_EQ(mmu.stats().pageFaults, 2u);
}

TEST_F(MmuTest, MunmapReleasesAndCharges)
{
    auto base = mmu.mmap(1 << 20, PageProt::ReadWrite);
    ASSERT_TRUE(base);
    const Cycles before = clock.now();
    EXPECT_TRUE(mmu.munmap(*base));
    EXPECT_GT(clock.now(), before); // shootdown cost charged
    EXPECT_EQ(mmu.access(*base, 8, false), AccessResult::NotMapped);
    EXPECT_FALSE(mmu.munmap(*base));
}

TEST_F(MmuTest, SyscallCostsAdvanceVirtualTime)
{
    const double t0 = clock.nowNs();
    mmu.mmap(1 << 20, PageProt::None);
    const double t1 = clock.nowNs();
    EXPECT_NEAR(t1 - t0,
                mmu.params().syscallFixedNs + mmu.params().mmapReserveNs,
                1.0);
}

TEST_F(MmuTest, MprotectCostScalesWithPages)
{
    auto base = mmu.mmap(1 << 24, PageProt::None);
    ASSERT_TRUE(base);
    const double t0 = clock.nowNs();
    mmu.mprotect(*base, 16 * kPageSize, PageProt::ReadWrite);
    const double one_grow = clock.nowNs() - t0;
    const double t1 = clock.nowNs();
    mmu.mprotect(*base, 256 * kPageSize, PageProt::ReadWrite);
    const double big_grow = clock.nowNs() - t1;
    EXPECT_GT(big_grow, one_grow);
    EXPECT_NEAR(big_grow - one_grow,
                240 * mmu.params().mprotectPerPageNs, 1.0);
}

TEST_F(MmuTest, HeapGrowthCalibration)
{
    // §6.1: growing a Wasm heap from one page to 4 GiB in 64 KiB
    // increments with mprotect() takes ~10.92 s. The per-grow cost here
    // must therefore be ~166 µs.
    auto base = mmu.mmap(8ULL << 30, PageProt::None);
    ASSERT_TRUE(base);
    const double t0 = clock.nowNs();
    mmu.mprotect(*base, 16 * kPageSize, PageProt::ReadWrite);
    const double per_grow_us = (clock.nowNs() - t0) / 1000.0;
    EXPECT_GT(per_grow_us, 140.0);
    EXPECT_LT(per_grow_us, 190.0);
}

TEST_F(MmuTest, MadviseDiscardsResidency)
{
    auto base = mmu.mmap(1 << 20, PageProt::ReadWrite);
    ASSERT_TRUE(base);
    for (unsigned i = 0; i < 16; ++i)
        mmu.access(*base + i * kPageSize, 8, true);
    mmu.madviseDontneed(*base, 1 << 20);
    EXPECT_EQ(mmu.stats().pagesDiscarded, 16u);
    // Accessing again re-faults.
    const auto faults = mmu.stats().pageFaults;
    mmu.access(*base, 8, false);
    EXPECT_EQ(mmu.stats().pageFaults, faults + 1);
}

TEST_F(MmuTest, StockTeardownCalibration)
{
    // §6.3.1: stock Wasmtime teardown (madvise of a heap whose workload
    // touched 16 pages) costs 25.7 µs.
    auto base = mmu.mmap(1 << 20, PageProt::ReadWrite);
    ASSERT_TRUE(base);
    for (unsigned i = 0; i < 16; ++i)
        mmu.access(*base + i * kPageSize, 8, true);
    const double t0 = clock.nowNs();
    mmu.madviseDontneed(*base, 1 << 16);
    const double us = (clock.nowNs() - t0) / 1000.0;
    EXPECT_GT(us, 23.0);
    EXPECT_LT(us, 28.0);
}

TEST_F(MmuTest, MadviseWalkCostScalesWithGuardSpan)
{
    // Batching a madvise across an 8 GiB guard region costs kernel page-
    // walk time even with nothing resident — the §6.3.1 penalty of
    // batching without HFI.
    auto base = mmu.mmap(16ULL << 30, PageProt::None);
    ASSERT_TRUE(base);
    const double t0 = clock.nowNs();
    mmu.madviseDontneed(*base, 8ULL << 30);
    const double guard_walk_us = (clock.nowNs() - t0) / 1000.0;
    // 4096 PMDs x ~1.95 ns each, plus the fixed syscall cost.
    EXPECT_GT(guard_walk_us, 8.0);
    EXPECT_LT(guard_walk_us, 14.0);
}

TEST_F(MmuTest, ExhaustionPropagates)
{
    VirtualClock small_clock;
    Mmu small(small_clock, 26);
    while (small.mmap(1 << 20, PageProt::None)) {
    }
    EXPECT_FALSE(small.mmap(1 << 20, PageProt::None).has_value());
}

} // namespace
