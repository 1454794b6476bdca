/**
 * @file
 * Tests for the Intel MPK baseline: the 15-usable-key limit (§7's
 * scaling wall), page tagging through pkey_mprotect, PKRU-gated access
 * checks, and the wrpkru cost ERIM's transitions pay.
 */

#include <gtest/gtest.h>

#include "core/context.h"
#include "mpk/mpk.h"

namespace
{

using namespace hfi;
using namespace hfi::mpk;

class MpkTest : public ::testing::Test
{
  protected:
    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    MpkDomainManager mgr{mmu};
};

TEST_F(MpkTest, ExactlyFifteenAllocatableKeys)
{
    // Key 0 is the default; 15 remain — the §7 limit that makes MPK
    // "unsuitable for server-side applications".
    for (int i = 0; i < 15; ++i)
        EXPECT_TRUE(mgr.pkeyAlloc().has_value()) << i;
    EXPECT_FALSE(mgr.pkeyAlloc().has_value());
    EXPECT_EQ(mgr.allocatedKeys(), 16u);
}

TEST_F(MpkTest, FreeMakesKeyReusable)
{
    auto key = mgr.pkeyAlloc();
    ASSERT_TRUE(key);
    EXPECT_TRUE(mgr.pkeyFree(*key));
    EXPECT_FALSE(mgr.pkeyFree(*key)); // double free
    EXPECT_FALSE(mgr.pkeyFree(0));    // default key not freeable
    auto again = mgr.pkeyAlloc();
    ASSERT_TRUE(again);
    EXPECT_EQ(*again, *key);
}

TEST_F(MpkTest, TaggingAndKeyLookup)
{
    auto base = mmu.mmap(4 * vm::kPageSize);
    ASSERT_TRUE(base);
    auto key = mgr.pkeyAlloc();
    ASSERT_TRUE(key);
    EXPECT_TRUE(mgr.pkeyMprotect(*base, 2 * vm::kPageSize, *key));
    EXPECT_EQ(mgr.keyAt(*base), *key);
    EXPECT_EQ(mgr.keyAt(*base + vm::kPageSize), *key);
    EXPECT_EQ(mgr.keyAt(*base + 2 * vm::kPageSize), 0u);
    EXPECT_FALSE(mgr.pkeyMprotect(*base, vm::kPageSize, 9)); // unallocated
}

TEST_F(MpkTest, PkruGatesAccess)
{
    auto base = mmu.mmap(vm::kPageSize);
    ASSERT_TRUE(base);
    auto key = mgr.pkeyAlloc();
    ASSERT_TRUE(key);
    mgr.pkeyMprotect(*base, vm::kPageSize, *key);

    // Default PKRU: everything open.
    EXPECT_TRUE(mgr.checkAccess(*base, true));

    // Close everything but key 0: the crypto domain's data is sealed.
    mgr.switchToDomain(0);
    EXPECT_FALSE(mgr.checkAccess(*base, false));
    EXPECT_FALSE(mgr.checkAccess(*base, true));
    EXPECT_TRUE(mgr.checkAccess(*base + vm::kPageSize, true)); // key 0

    // Switch into the domain: access restored.
    mgr.switchToDomain(*key);
    EXPECT_TRUE(mgr.checkAccess(*base, true));
}

TEST_F(MpkTest, WriteDisableIsSeparate)
{
    auto base = mmu.mmap(vm::kPageSize);
    ASSERT_TRUE(base);
    auto key = mgr.pkeyAlloc();
    ASSERT_TRUE(key);
    mgr.pkeyMprotect(*base, vm::kPageSize, *key);

    std::array<PkeyRights, kNumPkeys> rights{};
    rights[*key] = PkeyRights{false, true}; // read-only
    mgr.wrpkru(rights);
    EXPECT_TRUE(mgr.checkAccess(*base, false));
    EXPECT_FALSE(mgr.checkAccess(*base, true));
}

TEST_F(MpkTest, WrpkruIsUserLevelCheap)
{
    const auto t0 = clock.now();
    mgr.switchToDomain(0);
    const auto cost = clock.now() - t0;
    EXPECT_EQ(cost, kMpkCosts.wrpkruCycles);
    EXPECT_EQ(mgr.wrpkruCount(), 1u);
}

TEST_F(MpkTest, PkeyMprotectPaysKernelCosts)
{
    auto base = mmu.mmap(1 << 20);
    ASSERT_TRUE(base);
    auto key = mgr.pkeyAlloc();
    ASSERT_TRUE(key);
    const double t0 = clock.nowNs();
    mgr.pkeyMprotect(*base, 1 << 20, *key);
    // Tagging goes through the kernel: syscall + per-page PTE rewrite +
    // shootdown — the page-based cost HFI's userspace regions avoid.
    EXPECT_GT(clock.nowNs() - t0, 100'000.0);
}

TEST_F(MpkTest, DomainSwitchVsHfiTransitionCostShape)
{
    // Fig 5's ordering: one MPK crossing (2 wrpkru) is slightly cheaper
    // than one HFI native-sandbox crossing (serialized enter + exit +
    // metadata load), but both are within a small factor.
    core::HfiContext ctx(clock);
    const auto t0 = clock.now();
    mgr.switchToDomain(1);
    mgr.switchToDomain(0);
    const auto mpk_cost = clock.now() - t0;

    const auto t1 = clock.now();
    core::ExplicitDataRegion heap;
    heap.baseAddress = 0;
    heap.bound = 1 << 16;
    heap.permRead = true;
    heap.isLargeRegion = true;
    ctx.setRegion(core::kFirstExplicitRegion, heap);
    core::SandboxConfig cfg;
    cfg.isSerialized = true;
    cfg.isHybrid = false;
    ctx.enter(cfg);
    ctx.exit();
    const auto hfi_cost = clock.now() - t1;

    EXPECT_GT(hfi_cost, mpk_cost);
    EXPECT_LT(hfi_cost, mpk_cost * 4);
}

} // namespace
