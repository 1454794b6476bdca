/**
 * @file
 * Tests for the Wasm-style linear memory: 64 KiB-page growth semantics,
 * typed access, and zeroing of reused backing stores.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sfi/linear_memory.h"
#include "sfi/multi_memory.h"
#include "sfi/runtime.h"

namespace
{

using namespace hfi::sfi;

TEST(LinearMemory, StartsAtInitialPages)
{
    LinearMemory mem(2, 10);
    EXPECT_EQ(mem.pages(), 2u);
    EXPECT_EQ(mem.size(), 2 * kWasmPageSize);
    EXPECT_EQ(mem.maxPages(), 10u);
}

TEST(LinearMemory, GrowReturnsPreviousSize)
{
    LinearMemory mem(1, 10);
    EXPECT_EQ(mem.grow(3), 1);
    EXPECT_EQ(mem.pages(), 4u);
    EXPECT_EQ(mem.grow(6), 4);
    EXPECT_EQ(mem.pages(), 10u);
}

TEST(LinearMemory, GrowBeyondMaxFails)
{
    LinearMemory mem(1, 4);
    EXPECT_EQ(mem.grow(4), -1);
    EXPECT_EQ(mem.pages(), 1u);
    EXPECT_EQ(mem.grow(3), 1);
    EXPECT_EQ(mem.grow(1), -1);
}

TEST(LinearMemory, GrowByAWrappingDeltaFails)
{
    // pages + delta wraps 64 bits: memory.grow fails, it never shrinks.
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    LinearMemory mem(64, 4096);
    EXPECT_EQ(mem.grow(kMax - 10), -1);
    EXPECT_EQ(mem.grow(kMax), -1);
    EXPECT_EQ(mem.grow(4096 - 63), -1);
    EXPECT_EQ(mem.pages(), 64u);
    EXPECT_EQ(mem.size(), 64 * kWasmPageSize);

    LinearMemory small(2, 4);
    EXPECT_EQ(small.grow(kMax - 1), -1); // 2 + delta wraps to exactly 0
    EXPECT_EQ(small.grow(2), 2);
    EXPECT_EQ(small.grow(kMax), -1);
    EXPECT_EQ(small.pages(), 4u);
}

TEST(LinearMemory, SandboxGrowByAWrappingDeltaFails)
{
    for (BackendKind kind : {BackendKind::GuardPages, BackendKind::BoundsCheck,
                             BackendKind::Mask, BackendKind::Hfi}) {
        SCOPED_TRACE(backendKindName(kind));
        hfi::vm::VirtualClock clock;
        hfi::vm::Mmu mmu(clock);
        hfi::core::HfiContext ctx(clock);
        RuntimeConfig config;
        config.backend = kind;
        auto s = Runtime(mmu, ctx, config).createSandbox({4, 64});
        ASSERT_TRUE(s);
        // 4 + delta wraps to 1.
        EXPECT_EQ(s->memoryGrow(std::numeric_limits<std::uint64_t>::max() - 2),
                  -1);
        EXPECT_EQ(s->memory().pages(), 4u);
        s->store<std::uint8_t>(4 * kWasmPageSize - 1, 1);
        EXPECT_EQ(s->load<std::uint8_t>(4 * kWasmPageSize - 1), 1u);
    }
}

TEST(LinearMemory, InitialPagesBeyondTheMaximumThrow)
{
    EXPECT_THROW(LinearMemory(4, 1), std::invalid_argument);
    EXPECT_EQ(LinearMemory(1, 1).pages(), 1u);
    // A sandbox reserves only its maximum, so it must not start larger:
    // a store at 3 pages + 8 would land past its reservation.
    for (BackendKind kind : {BackendKind::GuardPages, BackendKind::BoundsCheck,
                             BackendKind::Mask, BackendKind::Hfi}) {
        SCOPED_TRACE(backendKindName(kind));
        hfi::vm::VirtualClock clock;
        hfi::vm::Mmu mmu(clock);
        hfi::core::HfiContext ctx(clock);
        RuntimeConfig config;
        config.backend = kind;
        EXPECT_THROW(Runtime(mmu, ctx, config).createSandbox({4, 1}),
                     std::invalid_argument);
        EXPECT_EQ(mmu.addressSpace().reservedBytes(), 0u);
    }
    hfi::vm::VirtualClock clock;
    hfi::vm::Mmu mmu(clock);
    hfi::core::HfiContext ctx(clock);
    EXPECT_THROW(MultiMemorySandbox(mmu, ctx, 2, 4, 1),
                 std::invalid_argument);
}

TEST(LinearMemory, NewPagesAreZero)
{
    LinearMemory mem(1, 4);
    mem.grow(1);
    for (std::uint64_t off = kWasmPageSize; off < 2 * kWasmPageSize;
         off += 4096)
        EXPECT_EQ(mem.load<std::uint64_t>(off), 0u);
}

TEST(LinearMemory, TypedRoundTrip)
{
    LinearMemory mem(1, 4);
    mem.store<std::uint8_t>(10, 0xab);
    mem.store<std::uint32_t>(20, 0xdeadbeef);
    mem.store<std::uint64_t>(32, 0x0123456789abcdefULL);
    EXPECT_EQ(mem.load<std::uint8_t>(10), 0xab);
    EXPECT_EQ(mem.load<std::uint32_t>(20), 0xdeadbeefu);
    EXPECT_EQ(mem.load<std::uint64_t>(32), 0x0123456789abcdefULL);
}

TEST(LinearMemory, UnalignedAccessWorks)
{
    LinearMemory mem(1, 4);
    mem.store<std::uint64_t>(3, 0x1122334455667788ULL);
    EXPECT_EQ(mem.load<std::uint64_t>(3), 0x1122334455667788ULL);
    EXPECT_EQ(mem.load<std::uint8_t>(3), 0x88);
}

TEST(LinearMemory, InBoundsEdgeCases)
{
    LinearMemory mem(1, 4);
    EXPECT_TRUE(mem.inBounds(kWasmPageSize - 8, 8));
    EXPECT_FALSE(mem.inBounds(kWasmPageSize - 7, 8));
    EXPECT_TRUE(mem.inBounds(0, kWasmPageSize));
    EXPECT_FALSE(mem.inBounds(UINT64_MAX, 1)); // overflow-safe
    EXPECT_TRUE(mem.inBounds(kWasmPageSize, 0));
}

TEST(LinearMemory, BulkCopies)
{
    LinearMemory mem(1, 4);
    const char text[] = "hello hfi";
    mem.writeBytes(100, text, sizeof(text));
    char back[sizeof(text)] = {};
    mem.readBytes(100, back, sizeof(text));
    EXPECT_STREQ(back, text);
}

TEST(LinearMemory, ReusedStoreStartsZeroed)
{
    // A destroyed memory's store backs the next one on this thread, and
    // none of its bytes may show through: not in the new size, and not
    // in the pages a later grow adds from the store's spare capacity.
    const std::uint8_t *store = nullptr;
    {
        LinearMemory old(4, 8);
        for (std::uint64_t i = 0; i < old.size(); ++i)
            old.store<std::uint8_t>(i, 0xab);
        store = old.data();
    }
    LinearMemory fresh(3, 8);
    EXPECT_EQ(fresh.data(), store); // the store was reused
    ASSERT_EQ(fresh.grow(1), 3);
    for (std::uint64_t i = 0; i < fresh.size(); ++i)
        ASSERT_EQ(fresh.load<std::uint8_t>(i), 0) << "byte " << i;
}

/** Destroy 64 memories (two teardown batches) with 2-page stores. */
void
destroyTwoBatches()
{
    std::vector<LinearMemory> batch(64, LinearMemory(1, 2));
    for (auto &m : batch)
        m.grow(1);
}

/**
 * Of 64 fresh one-page memories, how many got a spare 2-page store: a
 * grow into its spare capacity leaves the bytes where they are.
 */
std::size_t
reusedStores()
{
    std::vector<LinearMemory> next;
    next.reserve(64);
    std::size_t reused = 0;
    for (int i = 0; i < 64; ++i) {
        LinearMemory &m = next.emplace_back(1, 2);
        const std::uint8_t *before = m.data();
        m.grow(1);
        reused += m.data() == before;
    }
    return reused;
}

TEST(LinearMemory, SpareStoreScopeKeepsOneBatchPerCore)
{
    // A thread driving two cores tears down two batches back to back;
    // inside the scope every store backs a later memory. Outside it the
    // thread keeps one batch.
    {
        SpareStoreScope scope(2);
        destroyTwoBatches();
        EXPECT_EQ(reusedStores(), 64u);
    }
    destroyTwoBatches();
    EXPECT_EQ(reusedStores(), 32u);
}

} // namespace
