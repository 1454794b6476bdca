/**
 * @file
 * Tests for the isolation backend's four schemes: enforcement
 * semantics (precise traps vs silent wrapping), address-space
 * footprints, growth costs, and cost rows — the behavioural contrasts
 * of §2/Fig 3.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sfi/backend.h"
#include "sfi/linear_memory.h"
#include "vm/mmu.h"

namespace
{

using namespace hfi;
using namespace hfi::sfi;

class BackendTest : public ::testing::Test
{
  protected:
    std::unique_ptr<Backend>
    make(BackendKind kind)
    {
        return std::make_unique<Backend>(mmu, ctx, kind);
    }

    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
};

/** Enforcement semantics shared by the trapping backends. */
class TrappingBackendTest
    : public BackendTest,
      public ::testing::WithParamInterface<BackendKind>
{
};

TEST_P(TrappingBackendTest, InBoundsPassesOutOfBoundsTraps)
{
    auto backend = make(GetParam());
    ASSERT_TRUE(backend->create(2, 16));
    LinearMemory mem(2, 16);

    EXPECT_EQ(backend->checkAccess(0, 8, false, mem).outcome,
              AccessOutcome::Ok);
    EXPECT_EQ(backend->checkAccess(2 * kWasmPageSize - 8, 8, true, mem)
                  .outcome,
              AccessOutcome::Ok);
    // One byte past the accessible size: precise trap.
    EXPECT_EQ(backend->checkAccess(2 * kWasmPageSize - 7, 8, false, mem)
                  .outcome,
              AccessOutcome::Trap);
    EXPECT_EQ(backend->checkAccess(2 * kWasmPageSize, 1, false, mem)
                  .outcome,
              AccessOutcome::Trap);
    // Far out of bounds.
    EXPECT_EQ(backend->checkAccess(1ULL << 33, 8, true, mem).outcome,
              AccessOutcome::Trap);
}

TEST_P(TrappingBackendTest, GrowExtendsTheAccessibleRange)
{
    auto backend = make(GetParam());
    ASSERT_TRUE(backend->create(1, 16));
    LinearMemory mem(1, 16);
    EXPECT_EQ(backend->checkAccess(kWasmPageSize, 8, false, mem).outcome,
              AccessOutcome::Trap);
    mem.grow(1);
    backend->grow(1, 2);
    EXPECT_EQ(backend->checkAccess(kWasmPageSize, 8, false, mem).outcome,
              AccessOutcome::Ok);
}

INSTANTIATE_TEST_SUITE_P(Kinds, TrappingBackendTest,
                         ::testing::Values(BackendKind::GuardPages,
                                           BackendKind::BoundsCheck,
                                           BackendKind::Hfi),
                         [](const auto &info) {
                             return std::string(
                                 backendKindName(info.param)) == "guard-pages"
                                        ? "GuardPages"
                                    : info.param == BackendKind::BoundsCheck
                                        ? "BoundsCheck"
                                        : "Hfi";
                         });

TEST_F(BackendTest, GuardPagesReserve8GiB)
{
    // §2: 4 GiB linear memory + 4 GiB guard, reserved even for a tiny
    // heap.
    Backend backend(mmu, ctx, BackendKind::GuardPages);
    ASSERT_TRUE(backend.create(1, 65536));
    EXPECT_EQ(backend.reservedVaBytes(), 8ULL << 30);
    EXPECT_EQ(mmu.addressSpace().reservedBytes(), 8ULL << 30);
}

TEST_F(BackendTest, BoundsAndHfiReserveOnlyTheHeap)
{
    Backend bounds(mmu, ctx, BackendKind::BoundsCheck);
    ASSERT_TRUE(bounds.create(1, 65536));
    EXPECT_EQ(bounds.reservedVaBytes(), 4ULL << 30);

    Backend hfi_backend(mmu, ctx, BackendKind::Hfi);
    ASSERT_TRUE(hfi_backend.create(1, 16384)); // 1 GiB max
    EXPECT_EQ(hfi_backend.reservedVaBytes(), 1ULL << 30);
}

TEST_F(BackendTest, GuardPageGrowPaysMprotect)
{
    Backend backend(mmu, ctx, BackendKind::GuardPages);
    ASSERT_TRUE(backend.create(1, 65536));
    const auto calls = mmu.stats().mprotectCalls;
    const double t0 = clock.nowNs();
    backend.grow(1, 2);
    EXPECT_EQ(mmu.stats().mprotectCalls, calls + 1);
    // §6.1: ~166 µs per 64 KiB grow.
    EXPECT_GT(clock.nowNs() - t0, 100'000.0);
}

TEST_F(BackendTest, HfiGrowIsRegisterUpdate)
{
    Backend backend(mmu, ctx, BackendKind::Hfi);
    ASSERT_TRUE(backend.create(1, 65536));
    const auto mprotects = mmu.stats().mprotectCalls;
    const double t0 = clock.nowNs();
    backend.grow(1, 2);
    EXPECT_EQ(mmu.stats().mprotectCalls, mprotects); // no syscall at all
    // §6.1: "HFI can just update a region's bound registers".
    EXPECT_LT(clock.nowNs() - t0, 100.0);
}

TEST_F(BackendTest, HfiTrapReasonIsBoundsViolation)
{
    Backend backend(mmu, ctx, BackendKind::Hfi);
    ASSERT_TRUE(backend.create(1, 16));
    LinearMemory mem(1, 16);
    ASSERT_EQ(backend.checkAccess(kWasmPageSize + 5, 4, false, mem).outcome,
              AccessOutcome::Trap);
    EXPECT_EQ(backend.lastTrapReason(),
              core::ExitReason::HmovBoundsViolation);
}

TEST_F(BackendTest, HfiEnforcementMatchesRegionRegister)
{
    Backend backend(mmu, ctx, BackendKind::Hfi);
    ASSERT_TRUE(backend.create(2, 16));
    const auto region = std::get<core::ExplicitDataRegion>(
        ctx.region(core::kFirstExplicitRegion));
    EXPECT_EQ(region.baseAddress, backend.baseAddress());
    EXPECT_EQ(region.bound, 2 * kWasmPageSize);
    EXPECT_TRUE(region.isLargeRegion);
}

TEST_F(BackendTest, MaskWrapsInsteadOfTrapping)
{
    // §2: masking converts out-of-bounds accesses into silent
    // corruption — the precise-trap defect the paper rules it out for.
    Backend backend(mmu, ctx, BackendKind::Mask);
    ASSERT_TRUE(backend.create(4, 16));
    LinearMemory mem(4, 16);

    auto ok = backend.checkAccess(100, 8, false, mem);
    EXPECT_EQ(ok.outcome, AccessOutcome::Ok);
    EXPECT_EQ(ok.offset, 100u);

    auto wrapped =
        backend.checkAccess(4 * kWasmPageSize + 100, 8, true, mem);
    EXPECT_EQ(wrapped.outcome, AccessOutcome::Wrapped);
    EXPECT_LT(wrapped.offset + 8, mem.size());
}

TEST_F(BackendTest, SteadyStateCostTables)
{
    Backend guard(mmu, ctx, BackendKind::GuardPages);
    Backend bounds(mmu, ctx, BackendKind::BoundsCheck);
    Backend hfi_backend(mmu, ctx, BackendKind::Hfi);

    // Guard pages: no per-access check, one pinned register (§6.1's
    // 2.25%). Bounds: compare+branch per access, two pinned registers
    // (2.40%). HFI: neither, only hmov's icache tax.
    EXPECT_EQ(guard.costs().accessMilli, 0u);
    EXPECT_GT(guard.costs().opPressureMilli, 0u);
    EXPECT_GT(bounds.costs().accessMilli, 0u);
    EXPECT_GT(bounds.costs().opPressureMilli,
              guard.costs().opPressureMilli);
    EXPECT_EQ(hfi_backend.costs().accessMilli, 0u);
    EXPECT_EQ(hfi_backend.costs().opPressureMilli, 0u);
    EXPECT_GT(Backend::kIcacheMilliPerAccess, 0u);
}

TEST_F(BackendTest, HfiTransitionsDriveContext)
{
    Backend backend(mmu, ctx, BackendKind::Hfi);
    ASSERT_TRUE(backend.create(1, 16));
    EXPECT_FALSE(ctx.enabled());
    backend.enter();
    EXPECT_TRUE(ctx.enabled());
    EXPECT_TRUE(ctx.config().isHybrid);
    EXPECT_TRUE(ctx.config().isSerialized);
    backend.exit();
    EXPECT_FALSE(ctx.enabled());
}

TEST_F(BackendTest, FootprintRuleIsWhatCreateReserves)
{
    // Heap + 4 GiB guard, the heap alone, or the heap rounded up to a
    // power of two (mask); HFI reserves the heap alone.
    const std::uint64_t heap = 3 * kWasmPageSize;
    EXPECT_EQ(footprintBytes(BackendKind::GuardPages, heap),
              heap + kGuardBytes);
    EXPECT_EQ(footprintBytes(BackendKind::BoundsCheck, heap), heap);
    EXPECT_EQ(footprintBytes(BackendKind::Mask, heap), 4 * kWasmPageSize);
    EXPECT_EQ(footprintBytes(BackendKind::Hfi, heap), heap);
    for (BackendKind kind :
         {BackendKind::GuardPages, BackendKind::BoundsCheck,
          BackendKind::Mask, BackendKind::Hfi}) {
        SCOPED_TRACE(backendKindName(kind));
        auto backend = make(kind);
        ASSERT_TRUE(backend->create(1, 3));
        EXPECT_EQ(backend->reservedVaBytes(), footprintBytes(kind, heap));
    }
}

TEST_F(BackendTest, MaskRegionIsAlignedToItsSize)
{
    // A page-sized reservation first, so the mask's region cannot be
    // aligned by accident.
    Backend bounds(mmu, ctx, BackendKind::BoundsCheck);
    ASSERT_TRUE(bounds.create(1, 1));
    Backend mask(mmu, ctx, BackendKind::Mask);
    ASSERT_TRUE(mask.create(1, 5));
    EXPECT_EQ(mask.reservedVaBytes(), 8 * kWasmPageSize);
    EXPECT_EQ(mask.baseAddress() % mask.reservedVaBytes(), 0u);
}

TEST_F(BackendTest, CostRowDrivesTransitionsAndSteadyState)
{
    BackendCosts row{30, 700, 5};
    Backend backend(mmu, ctx, BackendKind::BoundsCheck, row);
    ASSERT_TRUE(backend.create(1, 16));
    const auto c0 = clock.now();
    backend.enter();
    backend.exit();
    EXPECT_EQ(clock.now() - c0, 60u);
    EXPECT_EQ(backend.costs().accessMilli, 700u);
    EXPECT_EQ(backend.costs().opPressureMilli, 5u);
}

TEST_F(BackendTest, PaperCostRows)
{
    // {transition cycles, per-access milli-cycles, op pressure}: Fig 3's
    // bounds-check spread and §6.1's 2.25%/2.40% register reservations;
    // HFI's transitions are hfi_enter/hfi_exit and it pins nothing.
    const BackendCosts guard = paperCosts(BackendKind::GuardPages);
    const BackendCosts bounds = paperCosts(BackendKind::BoundsCheck);
    const BackendCosts mask = paperCosts(BackendKind::Mask);
    const BackendCosts hfi_row = paperCosts(BackendKind::Hfi);
    EXPECT_EQ(guard.transitionCycles, 12u);
    EXPECT_EQ(guard.accessMilli, 0u);
    EXPECT_EQ(guard.opPressureMilli, 23u);
    EXPECT_EQ(bounds.transitionCycles, 12u);
    EXPECT_EQ(bounds.accessMilli, 1200u);
    EXPECT_EQ(bounds.opPressureMilli, 24u);
    EXPECT_EQ(mask.transitionCycles, 12u);
    EXPECT_EQ(mask.accessMilli, 600u);
    EXPECT_EQ(mask.opPressureMilli, 23u);
    EXPECT_EQ(hfi_row.transitionCycles, 0u);
    EXPECT_EQ(hfi_row.accessMilli, 0u);
    EXPECT_EQ(hfi_row.opPressureMilli, 0u);
}

TEST_F(BackendTest, CreateFailsWhenAddressSpaceExhausted)
{
    vm::VirtualClock small_clock;
    vm::Mmu small_mmu(small_clock, 32); // 4 GiB space
    core::HfiContext small_ctx(small_clock);
    Backend backend(small_mmu, small_ctx, BackendKind::GuardPages);
    EXPECT_FALSE(backend.create(1, 65536)); // needs 8 GiB
}

TEST_F(BackendTest, DestroyReleasesAddressSpace)
{
    {
        Backend backend(mmu, ctx, BackendKind::GuardPages);
        ASSERT_TRUE(backend.create(1, 65536));
        EXPECT_GT(mmu.addressSpace().reservedBytes(), 0u);
        backend.destroy();
        EXPECT_EQ(mmu.addressSpace().reservedBytes(), 0u);
    }
    {
        // Destructor path.
        Backend backend(mmu, ctx, BackendKind::Hfi);
        ASSERT_TRUE(backend.create(1, 65536));
    }
    EXPECT_EQ(mmu.addressSpace().reservedBytes(), 0u);
}

TEST_F(BackendTest, BackendKindNames)
{
    EXPECT_STREQ(backendKindName(BackendKind::GuardPages), "guard-pages");
    EXPECT_STREQ(backendKindName(BackendKind::BoundsCheck), "bounds-check");
    EXPECT_STREQ(backendKindName(BackendKind::Mask), "mask");
    EXPECT_STREQ(backendKindName(BackendKind::Hfi), "hfi");
}

} // namespace
