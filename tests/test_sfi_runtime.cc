/**
 * @file
 * Tests for what the trusted runtime does with sandboxes: backend
 * choice and cost row, VA-adjacent instance layout, the two §6.3.1
 * reclaim policies, and the §6.3.2 capacity math.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sfi/sandbox.h"

namespace
{

using namespace hfi;
using namespace hfi::sfi;

/** §6.3.2: sandboxes of @p heap_bytes the free space of @p mmu holds. */
std::uint64_t
capacity(vm::Mmu &mmu, BackendKind kind, std::uint64_t heap_bytes)
{
    const std::uint64_t usable = mmu.addressSpace().usableBytes() -
                                 mmu.addressSpace().reservedBytes();
    return usable / footprintBytes(kind, heap_bytes);
}

class RuntimeTest : public ::testing::Test
{
  protected:
    /** A sandbox of @p kind over the fixture's Mmu; check valid(). */
    std::unique_ptr<Sandbox>
    make(BackendKind kind, SandboxOptions opts)
    {
        return std::make_unique<Sandbox>(mmu, ctx, kind, opts);
    }

    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
};

TEST_F(RuntimeTest, FactoryProducesRequestedKind)
{
    for (BackendKind kind :
         {BackendKind::GuardPages, BackendKind::BoundsCheck,
          BackendKind::Mask, BackendKind::Hfi}) {
        auto sandbox = make(kind, {1, 16});
        ASSERT_TRUE(sandbox->valid());
        EXPECT_EQ(sandbox->backend().kind(), kind);
    }
}

TEST_F(RuntimeTest, CostRowOverrideReachesEveryKind)
{
    // Fig 4 adds hmov's residue to HFI's row the same way it adds the
    // exposed address arithmetic to a software row: a Sandbox's cost
    // row applies whatever the backend. Without one it charges
    // paperCosts(kind).
    auto invokeCycles = [](BackendKind kind,
                           std::optional<BackendCosts> costs) {
        vm::VirtualClock local_clock;
        vm::Mmu local_mmu(local_clock);
        core::HfiContext local_ctx(local_clock);
        const SandboxOptions opts{1, 1};
        auto s = costs ? std::make_unique<Sandbox>(local_mmu, local_ctx, kind,
                                                   *costs, opts)
                       : std::make_unique<Sandbox>(local_mmu, local_ctx, kind,
                                                   opts);
        EXPECT_TRUE(s->valid());
        const vm::Cycles c0 = local_clock.now();
        s->invoke([](Sandbox &sb) {
            for (std::uint64_t i = 0; i < 1000; ++i)
                sb.store<std::uint64_t>(8 * i, i);
            sb.chargeOps(1000);
        });
        return local_clock.now() - c0;
    };
    for (BackendKind kind : {BackendKind::BoundsCheck, BackendKind::Hfi}) {
        SCOPED_TRACE(backendKindName(kind));
        BackendCosts row = paperCosts(kind);
        row.transitionCycles += 7;
        row.accessMilli += 100;
        row.opPressureMilli += 20;
        // 1000 stores at +120 milli-cycles, 1000 ops at +20, and +7
        // cycles on enter and on exit.
        EXPECT_EQ(invokeCycles(kind, row) - invokeCycles(kind, std::nullopt),
                  120u + 20u + 14u);
        EXPECT_EQ(invokeCycles(kind, paperCosts(kind)),
                  invokeCycles(kind, std::nullopt));
    }
}

TEST_F(RuntimeTest, HfiInstancesArePackedAdjacently)
{
    // Guard elision means consecutive instances sit back to back —
    // the precondition for batched teardown (§5.1).
    auto a = make(BackendKind::Hfi, {1, 16});
    auto b = make(BackendKind::Hfi, {1, 16});
    ASSERT_TRUE(a->valid() && b->valid());
    EXPECT_EQ(b->backend().baseAddress(),
              a->backend().baseAddress() + 16 * kWasmPageSize);
}

TEST_F(RuntimeTest, GuardInstancesAre8GiBApart)
{
    auto a = make(BackendKind::GuardPages, {1, 65536});
    auto b = make(BackendKind::GuardPages, {1, 65536});
    ASSERT_TRUE(a->valid() && b->valid());
    EXPECT_GE(b->backend().baseAddress() - a->backend().baseAddress(),
              8ULL << 30);
}

TEST_F(RuntimeTest, StockReclaimIsOneMadvisePerSandbox)
{
    std::vector<std::unique_ptr<Sandbox>> owned;
    std::vector<Sandbox *> raw;
    for (int i = 0; i < 8; ++i) {
        owned.push_back(make(BackendKind::Hfi, {1, 16}));
        ASSERT_TRUE(owned.back()->valid());
        owned.back()->store<std::uint64_t>(0, 1); // make a page resident
        raw.push_back(owned.back().get());
    }
    const auto calls0 = mmu.stats().madviseCalls;
    reclaim(mmu, raw, ReclaimPolicy::Stock);
    EXPECT_EQ(mmu.stats().madviseCalls, calls0 + 8);
    EXPECT_GE(mmu.stats().pagesDiscarded, 8u);
}

TEST_F(RuntimeTest, BatchedReclaimCoalescesCalls)
{
    std::vector<std::unique_ptr<Sandbox>> owned;
    std::vector<Sandbox *> raw;
    for (int i = 0; i < 8; ++i) {
        owned.push_back(make(BackendKind::Hfi, {1, 16}));
        ASSERT_TRUE(owned.back()->valid());
        raw.push_back(owned.back().get());
    }
    const auto calls0 = mmu.stats().madviseCalls;
    reclaim(mmu, raw, ReclaimPolicy::Batched, 4);
    EXPECT_EQ(mmu.stats().madviseCalls, calls0 + 2); // 8 sandboxes / 4
}

TEST_F(RuntimeTest, BatchedReclaimRejectsAZeroBatch)
{
    Sandbox s(mmu, ctx, BackendKind::Hfi, {1, 16});
    ASSERT_TRUE(s.valid());
    EXPECT_THROW(reclaim(mmu, {&s}, ReclaimPolicy::Batched, 0),
                 std::invalid_argument);
}

TEST_F(RuntimeTest, BatchedReclaimCheaperOnlyWithGuardElision)
{
    // The §6.3.1 result in miniature: batching wins under HFI layouts
    // and loses under guard-page layouts (the kernel walks the guard
    // holes).
    auto measure = [&](BackendKind kind, ReclaimPolicy policy) {
        vm::VirtualClock local_clock;
        vm::Mmu local_mmu(local_clock);
        core::HfiContext local_ctx(local_clock);

        std::vector<std::unique_ptr<Sandbox>> owned;
        std::vector<Sandbox *> raw;
        for (int i = 0; i < 32; ++i) {
            // FaaS-style instances: 1 MiB max heaps, so HFI's layout
            // really is "immediately adjacent heaps" (§5.1); guard-page
            // instances still carry their 4 GiB guards.
            owned.push_back(std::make_unique<Sandbox>(
                local_mmu, local_ctx, kind, SandboxOptions{1, 16}));
            if (!owned.back()->valid())
                return -1.0;
            // Touch 16 pages like the FaaS microworkload.
            for (int p = 0; p < 16; ++p)
                owned.back()->store<std::uint64_t>(
                    static_cast<std::uint64_t>(p) * vm::kPageSize, 1);
            raw.push_back(owned.back().get());
        }
        const double t0 = local_clock.nowNs();
        reclaim(local_mmu, raw, policy, 32);
        return (local_clock.nowNs() - t0) / 32.0; // per sandbox
    };

    const double hfi_stock = measure(BackendKind::Hfi, ReclaimPolicy::Stock);
    const double hfi_batched =
        measure(BackendKind::Hfi, ReclaimPolicy::Batched);
    const double guard_batched =
        measure(BackendKind::GuardPages, ReclaimPolicy::Batched);
    ASSERT_GT(hfi_stock, 0);
    ASSERT_GT(hfi_batched, 0);
    ASSERT_GT(guard_batched, 0);

    EXPECT_LT(hfi_batched, hfi_stock);      // batching helps with HFI
    EXPECT_GT(guard_batched, hfi_stock);    // and hurts with guards
}

TEST_F(RuntimeTest, CapacityMathMatchesSection632)
{
    // 47-bit space: ~16K full-size guard-page sandboxes (8 GiB each,
    // §2) vs ~128K 1 GiB HFI sandboxes (the paper reports 256,000 on a
    // 48-bit address space — same shape, double the VA).
    EXPECT_LE(capacity(mmu, BackendKind::GuardPages, 4ULL << 30), 16384u);
    EXPECT_GE(capacity(mmu, BackendKind::GuardPages, 4ULL << 30), 16000u);
    EXPECT_GE(capacity(mmu, BackendKind::Hfi, 1ULL << 30), 130000u);
}

TEST_F(RuntimeTest, CapacityUsesTheBackendFootprintRule)
{
    // A 3-page heap reserves 4 pages under masking (a power of two), so
    // the capacity is that of a 4-page heap, not a 3-page one.
    const std::uint64_t heap = 3 * kWasmPageSize;
    EXPECT_EQ(capacity(mmu, BackendKind::Mask, heap),
              capacity(mmu, BackendKind::BoundsCheck, 4 * kWasmPageSize));
    // The capacity counts what Backend::create really reserves: exactly
    // that many sandboxes fit in a small address space, and no more.
    for (BackendKind kind :
         {BackendKind::GuardPages, BackendKind::BoundsCheck,
          BackendKind::Mask, BackendKind::Hfi}) {
        SCOPED_TRACE(backendKindName(kind));
        // A few dozen footprints at most: 32 GiB for guard pages, 8 MiB
        // for the others.
        vm::VirtualClock small_clock;
        vm::Mmu small_mmu(small_clock,
                          kind == BackendKind::GuardPages ? 35 : 23);
        core::HfiContext small_ctx(small_clock);
        const std::uint64_t fits = capacity(small_mmu, kind, heap);
        ASSERT_GT(fits, 0u);
        std::vector<std::unique_ptr<Sandbox>> owned;
        for (std::uint64_t i = 0; i < fits; ++i) {
            owned.push_back(std::make_unique<Sandbox>(
                small_mmu, small_ctx, kind, SandboxOptions{1, 3}));
            ASSERT_TRUE(owned.back()->valid()) << i;
        }
        EXPECT_FALSE(Sandbox(small_mmu, small_ctx, kind, {1, 3}).valid());
    }
}

TEST_F(RuntimeTest, CreateSandboxNullWhenFull)
{
    vm::VirtualClock small_clock;
    vm::Mmu small_mmu(small_clock, 34); // 16 GiB
    core::HfiContext small_ctx(small_clock);
    Sandbox first(small_mmu, small_ctx, BackendKind::GuardPages, {1, 65536});
    EXPECT_TRUE(first.valid());
    Sandbox second(small_mmu, small_ctx, BackendKind::GuardPages, {1, 65536});
    EXPECT_FALSE(second.valid()); // 8 GiB footprint no longer fits
}

} // namespace
