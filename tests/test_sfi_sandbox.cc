/**
 * @file
 * Tests for the Sandbox execution surface: real data movement, traps
 * as exceptions, memory_grow, cost metering, and first-touch paging.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sfi/sandbox.h"

namespace
{

using namespace hfi;
using namespace hfi::sfi;

class SandboxTest : public ::testing::Test
{
  protected:
    std::unique_ptr<Sandbox>
    make(BackendKind kind, SandboxOptions opts = {})
    {
        auto s = std::make_unique<Sandbox>(mmu, ctx, kind, opts);
        if (!s->valid())
            s.reset();
        return s;
    }

    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
};

class SandboxAllBackends
    : public SandboxTest,
      public ::testing::WithParamInterface<BackendKind>
{
};

TEST_P(SandboxAllBackends, LoadStoreRoundTrip)
{
    auto sandbox = make(GetParam());
    ASSERT_TRUE(sandbox);
    sandbox->store<std::uint64_t>(64, 0xfeedface12345678ULL);
    sandbox->store<std::uint8_t>(72, 0x7f);
    EXPECT_EQ(sandbox->load<std::uint64_t>(64), 0xfeedface12345678ULL);
    EXPECT_EQ(sandbox->load<std::uint8_t>(72), 0x7f);
    EXPECT_EQ(sandbox->stats().loads, 2u);
    EXPECT_EQ(sandbox->stats().stores, 2u);
}

TEST_P(SandboxAllBackends, MemoryGrowSemantics)
{
    auto sandbox = make(GetParam(), {1, 8});
    ASSERT_TRUE(sandbox);
    EXPECT_EQ(sandbox->memoryGrow(3), 1);
    EXPECT_EQ(sandbox->memoryGrow(10), -1);
    EXPECT_EQ(sandbox->memory().pages(), 4u);
    EXPECT_EQ(sandbox->stats().growCalls, 2u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SandboxAllBackends,
                         ::testing::Values(BackendKind::GuardPages,
                                           BackendKind::BoundsCheck,
                                           BackendKind::Mask,
                                           BackendKind::Hfi));

TEST_F(SandboxTest, OutOfBoundsLoadThrows)
{
    auto sandbox = make(BackendKind::Hfi, {1, 8});
    ASSERT_TRUE(sandbox);
    EXPECT_THROW(sandbox->load<std::uint64_t>(kWasmPageSize),
                 SandboxTrap);
    try {
        sandbox->store<std::uint32_t>(kWasmPageSize + 12, 1);
        FAIL() << "expected trap";
    } catch (const SandboxTrap &trap) {
        EXPECT_EQ(trap.offset(), kWasmPageSize + 12);
        EXPECT_EQ(trap.width(), 4u);
        EXPECT_TRUE(trap.isWrite());
    }
}

TEST_F(SandboxTest, GrowThenAccessNoLongerTraps)
{
    auto sandbox = make(BackendKind::GuardPages, {1, 8});
    ASSERT_TRUE(sandbox);
    EXPECT_THROW(sandbox->load<std::uint8_t>(kWasmPageSize), SandboxTrap);
    EXPECT_EQ(sandbox->memoryGrow(1), 1);
    EXPECT_EQ(sandbox->load<std::uint8_t>(kWasmPageSize), 0);
}

TEST_F(SandboxTest, MaskSandboxNeverThrows)
{
    auto sandbox = make(BackendKind::Mask, {1, 8});
    ASSERT_TRUE(sandbox);
    // The wrapped store silently lands on in-bounds data (§2's
    // corruption hazard, demonstrated).
    sandbox->store<std::uint64_t>(8, 0x1111111111111111ULL);
    EXPECT_NO_THROW(sandbox->store<std::uint64_t>(
        kWasmPageSize + 8, 0x2222222222222222ULL));
    EXPECT_EQ(sandbox->stats().wrappedAccesses, 1u);
    // The wrap corrupted offset 8.
    EXPECT_EQ(sandbox->load<std::uint64_t>(8), 0x2222222222222222ULL);
}

TEST_F(SandboxTest, InvokeCatchesTraps)
{
    auto sandbox = make(BackendKind::Hfi, {1, 8});
    ASSERT_TRUE(sandbox);
    EXPECT_TRUE(sandbox->invoke([](Sandbox &s) {
        s.store<std::uint32_t>(0, 42);
    }));
    EXPECT_FALSE(sandbox->invoke([](Sandbox &s) {
        s.load<std::uint8_t>(1ULL << 30);
    }));
    EXPECT_EQ(sandbox->stats().traps, 1u);
    EXPECT_EQ(sandbox->stats().invocations, 2u);
    EXPECT_FALSE(ctx.enabled()); // exit ran despite the trap
}

TEST_F(SandboxTest, ComputeChargesVirtualTime)
{
    auto sandbox = make(BackendKind::BoundsCheck);
    ASSERT_TRUE(sandbox);
    const auto t0 = clock.now();
    sandbox->chargeOps(100'000);
    sandbox->flushCharge();
    // 100k ops at >= 1 cycle each, plus the 2.4% pressure tax.
    EXPECT_GE(clock.now() - t0, 100'000u);
    EXPECT_LE(clock.now() - t0, 110'000u);
}

TEST_F(SandboxTest, BoundsBackendChargesPerAccess)
{
    auto bounds = make(BackendKind::BoundsCheck);
    auto hfi_sandbox = make(BackendKind::Hfi);
    ASSERT_TRUE(bounds && hfi_sandbox);

    const auto t0 = clock.now();
    for (int i = 0; i < 10'000; ++i)
        bounds->load<std::uint64_t>(static_cast<std::uint64_t>(i) * 8 %
                                    4096);
    bounds->flushCharge();
    const auto bounds_cost = clock.now() - t0;

    const auto t1 = clock.now();
    for (int i = 0; i < 10'000; ++i)
        hfi_sandbox->load<std::uint64_t>(static_cast<std::uint64_t>(i) * 8 %
                                         4096);
    hfi_sandbox->flushCharge();
    const auto hfi_cost = clock.now() - t1;

    // Fig 3's mechanism: the compare+branch makes bounds-checked loads
    // measurably dearer than HFI's checks-in-parallel loads.
    EXPECT_GT(bounds_cost, hfi_cost + 10'000);
}

TEST_F(SandboxTest, FirstTouchChargesPageFaultsOnce)
{
    auto sandbox = make(BackendKind::GuardPages, {4, 16});
    ASSERT_TRUE(sandbox);
    const auto faults0 = mmu.stats().pageFaults;
    sandbox->store<std::uint64_t>(0, 1);
    sandbox->store<std::uint64_t>(8, 2); // same 4 KiB page
    EXPECT_EQ(mmu.stats().pageFaults, faults0 + 1);
    sandbox->store<std::uint64_t>(vm::kPageSize, 3);
    EXPECT_EQ(mmu.stats().pageFaults, faults0 + 2);
}

TEST_F(SandboxTest, IcacheSensitivityTaxesHfiAccesses)
{
    // §6.1's gobmk effect: a big-code workload pays for hmov's longer
    // encodings under HFI.
    auto plain = make(BackendKind::Hfi, {1, 8, /*icache*/ 0});
    auto bigcode = make(BackendKind::Hfi, {1, 8, /*icache*/ 80});
    ASSERT_TRUE(plain && bigcode);

    const auto t0 = clock.now();
    for (int i = 0; i < 10'000; ++i)
        plain->load<std::uint32_t>(0);
    plain->flushCharge();
    const auto plain_cost = clock.now() - t0;

    const auto t1 = clock.now();
    for (int i = 0; i < 10'000; ++i)
        bigcode->load<std::uint32_t>(0);
    bigcode->flushCharge();
    const auto bigcode_cost = clock.now() - t1;

    EXPECT_GT(bigcode_cost, plain_cost);
}

TEST_F(SandboxTest, GrowCostGapMatchesSection61)
{
    // The 30x grow gap in miniature: 16 grows under guard pages vs HFI.
    auto guard = make(BackendKind::GuardPages, {1, 65536});
    ASSERT_TRUE(guard);
    const double g0 = clock.nowNs();
    for (int i = 0; i < 16; ++i)
        guard->memoryGrow(1);
    const double guard_ns = clock.nowNs() - g0;

    auto hfi_sandbox = make(BackendKind::Hfi, {1, 65536});
    ASSERT_TRUE(hfi_sandbox);
    const double h0 = clock.nowNs();
    for (int i = 0; i < 16; ++i)
        hfi_sandbox->memoryGrow(1);
    const double hfi_ns = clock.nowNs() - h0;

    EXPECT_GT(guard_ns / hfi_ns, 20.0);
    EXPECT_LT(guard_ns / hfi_ns, 40.0);
}

} // namespace
