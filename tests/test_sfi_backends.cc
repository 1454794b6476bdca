/**
 * @file
 * Tests for the two isolation backends (four schemes): enforcement
 * semantics (precise traps vs silent wrapping), address-space
 * footprints, growth costs, and steady-state cost tables — the
 * behavioural contrasts of §2/Fig 3.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "sfi/hfi_backend.h"
#include "sfi/linear_memory.h"
#include "sfi/software_backend.h"
#include "vm/mmu.h"

namespace
{

using namespace hfi;
using namespace hfi::sfi;

class BackendTest : public ::testing::Test
{
  protected:
    std::unique_ptr<IsolationBackend>
    make(BackendKind kind)
    {
        if (kind == BackendKind::Hfi)
            return std::make_unique<HfiBackend>(mmu, ctx);
        return std::make_unique<SoftwareBackend>(mmu, kind);
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
    SoftwareBackend backend(mmu, BackendKind::GuardPages);
    ASSERT_TRUE(backend.create(1, 65536));
    EXPECT_EQ(backend.reservedVaBytes(), 8ULL << 30);
    EXPECT_EQ(mmu.addressSpace().reservedBytes(), 8ULL << 30);
}

TEST_F(BackendTest, BoundsAndHfiReserveOnlyTheHeap)
{
    SoftwareBackend bounds(mmu, BackendKind::BoundsCheck);
    ASSERT_TRUE(bounds.create(1, 65536));
    EXPECT_EQ(bounds.reservedVaBytes(), 4ULL << 30);

    HfiBackend hfi_backend(mmu, ctx);
    ASSERT_TRUE(hfi_backend.create(1, 16384)); // 1 GiB max
    EXPECT_EQ(hfi_backend.reservedVaBytes(), 1ULL << 30);
}

TEST_F(BackendTest, GuardPageGrowPaysMprotect)
{
    SoftwareBackend backend(mmu, BackendKind::GuardPages);
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
    HfiBackend backend(mmu, ctx);
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
    HfiBackend backend(mmu, ctx);
    ASSERT_TRUE(backend.create(1, 16));
    LinearMemory mem(1, 16);
    ASSERT_EQ(backend.checkAccess(kWasmPageSize + 5, 4, false, mem).outcome,
              AccessOutcome::Trap);
    EXPECT_EQ(backend.lastTrapReason(),
              core::ExitReason::HmovBoundsViolation);
}

TEST_F(BackendTest, HfiEnforcementMatchesRegionRegister)
{
    HfiBackend backend(mmu, ctx);
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
    SoftwareBackend backend(mmu, BackendKind::Mask);
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
    SoftwareBackend guard(mmu, BackendKind::GuardPages);
    SoftwareBackend bounds(mmu, BackendKind::BoundsCheck);
    HfiBackend hfi_backend(mmu, ctx);

    // Guard pages: no per-access check, one pinned register (§6.1's
    // 2.25%). Bounds: compare+branch per access, two pinned registers
    // (2.40%). HFI: neither.
    EXPECT_EQ(guard.steadyStateCosts().loadExtraMilli, 0u);
    EXPECT_GT(guard.steadyStateCosts().opPressureMilli, 0u);
    EXPECT_GT(bounds.steadyStateCosts().loadExtraMilli, 0u);
    EXPECT_GT(bounds.steadyStateCosts().opPressureMilli,
              guard.steadyStateCosts().opPressureMilli);
    EXPECT_EQ(hfi_backend.steadyStateCosts().loadExtraMilli, 0u);
    EXPECT_EQ(hfi_backend.steadyStateCosts().opPressureMilli, 0u);
    EXPECT_GT(hfi_backend.steadyStateCosts().icacheMilliPerAccess, 0u);
}

TEST_F(BackendTest, HfiTransitionsDriveContext)
{
    HfiBackend backend(mmu, ctx);
    ASSERT_TRUE(backend.create(1, 16));
    EXPECT_FALSE(ctx.enabled());
    backend.enterSandbox();
    EXPECT_TRUE(ctx.enabled());
    EXPECT_TRUE(ctx.config().isHybrid);
    EXPECT_TRUE(ctx.config().isSerialized);
    backend.exitSandbox();
    EXPECT_FALSE(ctx.enabled());
}

TEST_F(BackendTest, HfiSwitchOnExitConfig)
{
    HfiBackendConfig config;
    config.switchOnExit = true;
    HfiBackend backend(mmu, ctx, config);
    ASSERT_TRUE(backend.create(1, 16));

    // The runtime sandbox wraps the child (§3.4).
    core::SandboxConfig runtime_cfg;
    runtime_cfg.isHybrid = true;
    runtime_cfg.isSerialized = true;
    ctx.enter(runtime_cfg);

    backend.enterSandbox();
    EXPECT_TRUE(ctx.config().switchOnExit);
    backend.exitSandbox();
    EXPECT_TRUE(ctx.enabled()); // back in the runtime sandbox
    EXPECT_TRUE(ctx.lastExitSwitched());
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
    SoftwareBackend bounds(mmu, BackendKind::BoundsCheck);
    ASSERT_TRUE(bounds.create(1, 1));
    SoftwareBackend mask(mmu, BackendKind::Mask);
    ASSERT_TRUE(mask.create(1, 5));
    EXPECT_EQ(mask.reservedVaBytes(), 8 * kWasmPageSize);
    EXPECT_EQ(mask.baseAddress() % mask.reservedVaBytes(), 0u);
}

TEST_F(BackendTest, CostRowDrivesTransitionsAndSteadyState)
{
    SoftwareCosts row{30, 700, 5};
    SoftwareBackend backend(mmu, BackendKind::BoundsCheck, row);
    ASSERT_TRUE(backend.create(1, 16));
    const auto c0 = clock.now();
    backend.enterSandbox();
    backend.exitSandbox();
    EXPECT_EQ(clock.now() - c0, 60u);
    EXPECT_EQ(backend.steadyStateCosts().loadExtraMilli, 700u);
    EXPECT_EQ(backend.steadyStateCosts().storeExtraMilli, 700u);
    EXPECT_EQ(backend.steadyStateCosts().opPressureMilli, 5u);
    EXPECT_EQ(backend.steadyStateCosts().icacheMilliPerAccess, 0u);
}

TEST_F(BackendTest, PaperCostRows)
{
    // {transition cycles, per-access milli-cycles, op pressure}: Fig 3's
    // bounds-check spread and §6.1's 2.25%/2.40% register reservations.
    const SoftwareCosts guard = paperCosts(BackendKind::GuardPages);
    const SoftwareCosts bounds = paperCosts(BackendKind::BoundsCheck);
    const SoftwareCosts mask = paperCosts(BackendKind::Mask);
    EXPECT_EQ(guard.transitionCycles, 12u);
    EXPECT_EQ(guard.accessMilli, 0u);
    EXPECT_EQ(guard.opPressureMilli, 23u);
    EXPECT_EQ(bounds.transitionCycles, 12u);
    EXPECT_EQ(bounds.accessMilli, 1200u);
    EXPECT_EQ(bounds.opPressureMilli, 24u);
    EXPECT_EQ(mask.transitionCycles, 12u);
    EXPECT_EQ(mask.accessMilli, 600u);
    EXPECT_EQ(mask.opPressureMilli, 23u);
}

TEST_F(BackendTest, HfiIsNotASoftwareScheme)
{
    EXPECT_THROW(paperCosts(BackendKind::Hfi), std::invalid_argument);
    EXPECT_THROW(SoftwareBackend(mmu, BackendKind::Hfi, SoftwareCosts{}),
                 std::invalid_argument);
}

TEST_F(BackendTest, CreateFailsWhenAddressSpaceExhausted)
{
    vm::VirtualClock small_clock;
    vm::Mmu small_mmu(small_clock, 32); // 4 GiB space
    SoftwareBackend backend(small_mmu, BackendKind::GuardPages);
    EXPECT_FALSE(backend.create(1, 65536)); // needs 8 GiB
}

TEST_F(BackendTest, DestroyReleasesAddressSpace)
{
    {
        SoftwareBackend backend(mmu, BackendKind::GuardPages);
        ASSERT_TRUE(backend.create(1, 65536));
        EXPECT_GT(mmu.addressSpace().reservedBytes(), 0u);
        backend.destroy();
        EXPECT_EQ(mmu.addressSpace().reservedBytes(), 0u);
    }
    {
        // Destructor path.
        HfiBackend backend(mmu, ctx);
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
