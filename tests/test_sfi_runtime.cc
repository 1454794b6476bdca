/**
 * @file
 * Tests for the Runtime: backend choice and cost row, VA-adjacent
 * instance layout, the three §6.3.1 reclaim policies, and the §6.3.2
 * capacity math.
 */

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "sfi/runtime.h"

namespace
{

using namespace hfi;
using namespace hfi::sfi;

class RuntimeTest : public ::testing::Test
{
  protected:
    Runtime
    makeRuntime(BackendKind kind)
    {
        RuntimeConfig config;
        config.backend = kind;
        return Runtime(mmu, ctx, config);
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
        auto sandbox = makeRuntime(kind).createSandbox({1, 16});
        ASSERT_TRUE(sandbox);
        EXPECT_EQ(sandbox->backend().kind(), kind);
    }
}

TEST_F(RuntimeTest, CostRowOverrideReachesEveryKind)
{
    // Fig 4 adds hmov's residue to HFI's row the same way it adds the
    // exposed address arithmetic to a software row: RuntimeConfig::costs
    // applies whatever the backend.
    auto invokeCycles = [](BackendKind kind,
                           std::optional<BackendCosts> costs) {
        vm::VirtualClock local_clock;
        vm::Mmu local_mmu(local_clock);
        core::HfiContext local_ctx(local_clock);
        RuntimeConfig config;
        config.backend = kind;
        config.costs = costs;
        auto s = Runtime(local_mmu, local_ctx, config).createSandbox({1, 1});
        EXPECT_TRUE(s);
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
    }
}

TEST_F(RuntimeTest, HfiInstancesArePackedAdjacently)
{
    // Guard elision means consecutive instances sit back to back —
    // the precondition for batched teardown (§5.1).
    auto runtime = makeRuntime(BackendKind::Hfi);
    auto a = runtime.createSandbox({1, 16});
    auto b = runtime.createSandbox({1, 16});
    ASSERT_TRUE(a && b);
    EXPECT_EQ(b->backend().baseAddress(),
              a->backend().baseAddress() + 16 * kWasmPageSize);
}

TEST_F(RuntimeTest, GuardInstancesAre8GiBApart)
{
    auto runtime = makeRuntime(BackendKind::GuardPages);
    auto a = runtime.createSandbox({1, 65536});
    auto b = runtime.createSandbox({1, 65536});
    ASSERT_TRUE(a && b);
    EXPECT_GE(b->backend().baseAddress() - a->backend().baseAddress(),
              8ULL << 30);
}

TEST_F(RuntimeTest, StockReclaimIsOneMadvisePerSandbox)
{
    auto runtime = makeRuntime(BackendKind::Hfi);
    std::vector<std::unique_ptr<Sandbox>> owned;
    std::vector<Sandbox *> raw;
    for (int i = 0; i < 8; ++i) {
        owned.push_back(runtime.createSandbox({1, 16}));
        ASSERT_TRUE(owned.back());
        owned.back()->store<std::uint64_t>(0, 1); // make a page resident
        raw.push_back(owned.back().get());
    }
    const auto calls0 = mmu.stats().madviseCalls;
    runtime.reclaim(raw, ReclaimPolicy::Stock);
    EXPECT_EQ(mmu.stats().madviseCalls, calls0 + 8);
    EXPECT_GE(mmu.stats().pagesDiscarded, 8u);
}

TEST_F(RuntimeTest, BatchedReclaimCoalescesCalls)
{
    auto runtime = makeRuntime(BackendKind::Hfi);
    std::vector<std::unique_ptr<Sandbox>> owned;
    std::vector<Sandbox *> raw;
    for (int i = 0; i < 8; ++i) {
        owned.push_back(runtime.createSandbox({1, 16}));
        ASSERT_TRUE(owned.back());
        raw.push_back(owned.back().get());
    }
    const auto calls0 = mmu.stats().madviseCalls;
    runtime.reclaim(raw, ReclaimPolicy::Batched, 4);
    EXPECT_EQ(mmu.stats().madviseCalls, calls0 + 2); // 8 sandboxes / 4
}

TEST_F(RuntimeTest, BatchedReclaimRejectsAZeroBatch)
{
    auto runtime = makeRuntime(BackendKind::Hfi);
    auto s = runtime.createSandbox({1, 16});
    ASSERT_TRUE(s);
    EXPECT_THROW(runtime.reclaim({s.get()}, ReclaimPolicy::Batched, 0),
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
        RuntimeConfig config;
        config.backend = kind;
        Runtime runtime(local_mmu, local_ctx, config);

        std::vector<std::unique_ptr<Sandbox>> owned;
        std::vector<Sandbox *> raw;
        for (int i = 0; i < 32; ++i) {
            // FaaS-style instances: 1 MiB max heaps, so HFI's layout
            // really is "immediately adjacent heaps" (§5.1); guard-page
            // instances still carry their 4 GiB guards.
            owned.push_back(runtime.createSandbox({1, 16}));
            if (!owned.back())
                return -1.0;
            // Touch 16 pages like the FaaS microworkload.
            for (int p = 0; p < 16; ++p)
                owned.back()->store<std::uint64_t>(
                    static_cast<std::uint64_t>(p) * vm::kPageSize, 1);
            raw.push_back(owned.back().get());
        }
        const double t0 = local_clock.nowNs();
        runtime.reclaim(raw, policy, 32);
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
    auto guard = makeRuntime(BackendKind::GuardPages);
    auto hfi_runtime = makeRuntime(BackendKind::Hfi);
    // 47-bit space: ~16K full-size guard-page sandboxes (8 GiB each,
    // §2) vs ~128K 1 GiB HFI sandboxes (the paper reports 256,000 on a
    // 48-bit address space — same shape, double the VA).
    EXPECT_LE(guard.addressSpaceCapacity(4ULL << 30), 16384u);
    EXPECT_GE(guard.addressSpaceCapacity(4ULL << 30), 16000u);
    EXPECT_GE(hfi_runtime.addressSpaceCapacity(1ULL << 30), 130000u);
}

TEST_F(RuntimeTest, CapacityUsesTheBackendFootprintRule)
{
    // A 3-page heap reserves 4 pages under masking (a power of two), so
    // the capacity is that of a 4-page heap, not a 3-page one.
    const std::uint64_t heap = 3 * kWasmPageSize;
    EXPECT_EQ(makeRuntime(BackendKind::Mask).addressSpaceCapacity(heap),
              makeRuntime(BackendKind::BoundsCheck)
                  .addressSpaceCapacity(4 * kWasmPageSize));
    for (BackendKind kind :
         {BackendKind::GuardPages, BackendKind::BoundsCheck,
          BackendKind::Mask, BackendKind::Hfi}) {
        const std::uint64_t usable = mmu.addressSpace().usableBytes() -
                                     mmu.addressSpace().reservedBytes();
        EXPECT_EQ(makeRuntime(kind).addressSpaceCapacity(heap),
                  usable / footprintBytes(kind, heap))
            << backendKindName(kind);
    }
}

TEST_F(RuntimeTest, CreateSandboxNullWhenFull)
{
    vm::VirtualClock small_clock;
    vm::Mmu small_mmu(small_clock, 34); // 16 GiB
    core::HfiContext small_ctx(small_clock);
    RuntimeConfig config;
    config.backend = BackendKind::GuardPages;
    Runtime runtime(small_mmu, small_ctx, config);
    auto first = runtime.createSandbox({1, 65536});
    EXPECT_TRUE(first);
    auto second = runtime.createSandbox({1, 65536});
    EXPECT_FALSE(second); // 8 GiB footprint no longer fits
}

} // namespace
