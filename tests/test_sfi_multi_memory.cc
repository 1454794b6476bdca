/**
 * @file
 * Tests for Wasm multi-memory over multiplexed explicit regions
 * (§3.3.1): binding, LRU rebinds, per-memory bounds enforcement, growth
 * by register update, the guard-free footprint (§2's contrast), the
 * registers an instance leaves behind, and the LruBinder policy itself
 * against a list-based reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <variant>
#include <vector>

#include "sfi/lru_binder.h"
#include "sfi/sandbox.h"

namespace
{

using namespace hfi;
using namespace hfi::sfi;

class MultiMemoryTest : public ::testing::Test
{
  protected:
    /**
     * An HFI instance with @p memories memories (the heap and
     * memories - 1 more), each of @p initial_pages up to @p max_pages.
     */
    std::unique_ptr<Sandbox>
    instance(unsigned memories, std::uint64_t initial_pages = 1,
             std::uint64_t max_pages = 16)
    {
        auto sandbox = std::make_unique<Sandbox>(
            mmu, ctx, BackendKind::Hfi, paperCosts(BackendKind::Hfi),
            SandboxOptions{initial_pages, max_pages});
        if (!sandbox->valid())
            return nullptr;
        for (unsigned m = 1; m < memories; ++m) {
            if (!sandbox->addMemory(initial_pages, max_pages))
                return nullptr;
        }
        return sandbox;
    }

    core::Region
    explicitRegion(unsigned index) const
    {
        return ctx.region(core::kFirstExplicitRegion + index);
    }

    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
};

TEST_F(MultiMemoryTest, IndependentMemories)
{
    auto sandbox = instance(3);
    ASSERT_TRUE(sandbox);
    sandbox->enter();
    sandbox->store<std::uint64_t>(0, 64, 0xaaaa);
    sandbox->store<std::uint64_t>(1, 64, 0xbbbb);
    sandbox->store<std::uint64_t>(2, 64, 0xcccc);
    EXPECT_EQ(sandbox->load<std::uint64_t>(0, 64), 0xaaaau);
    EXPECT_EQ(sandbox->load<std::uint64_t>(1, 64), 0xbbbbu);
    EXPECT_EQ(sandbox->load<std::uint64_t>(2, 64), 0xccccu);
    EXPECT_EQ(sandbox->load<std::uint64_t>(64), 0xaaaau); // the heap
    sandbox->exit();
}

TEST_F(MultiMemoryTest, UpToFourMemoriesNeverRebind)
{
    auto sandbox = instance(4);
    ASSERT_TRUE(sandbox);
    sandbox->enter();
    for (int round = 0; round < 10; ++round) {
        for (unsigned m = 0; m < 4; ++m)
            sandbox->store<std::uint32_t>(m, 0, round);
    }
    // The heap stays on register 0; one initial bind per other memory,
    // nothing after.
    EXPECT_EQ(sandbox->stats().rebinds, 3u);
    sandbox->exit();
}

TEST_F(MultiMemoryTest, FifthMemoryForcesLruRebinds)
{
    auto sandbox = instance(5);
    ASSERT_TRUE(sandbox);
    sandbox->enter();
    for (unsigned m = 0; m < 5; ++m)
        sandbox->store<std::uint32_t>(m, 0, m);
    EXPECT_EQ(sandbox->stats().rebinds, 4u);
    // Memory 4's bind evicted memory 1, the least recently used: 4, 3
    // and 2 are still bound, and touching 1 rebinds.
    for (unsigned m : {4u, 3u, 2u})
        EXPECT_EQ(sandbox->load<std::uint32_t>(m, 0), m);
    EXPECT_EQ(sandbox->stats().rebinds, 4u);
    EXPECT_EQ(sandbox->load<std::uint32_t>(1, 0), 1u);
    EXPECT_EQ(sandbox->stats().rebinds, 5u);
    sandbox->exit();
}

TEST_F(MultiMemoryTest, RebindSerializesInHybridSandbox)
{
    auto sandbox = instance(5);
    ASSERT_TRUE(sandbox);
    sandbox->enter();
    const auto serializations = ctx.stats().serializations;
    for (unsigned m = 0; m < 5; ++m)
        sandbox->store<std::uint32_t>(m, 0, 1);
    // §4.3: every in-sandbox hfi_set_region serialized; the heap took
    // none.
    EXPECT_EQ(ctx.stats().serializations, serializations + 4);
    sandbox->exit();
}

TEST_F(MultiMemoryTest, PerMemoryBoundsEnforced)
{
    auto sandbox = instance(2, /*initial*/ 1, /*max*/ 8);
    ASSERT_TRUE(sandbox);
    EXPECT_TRUE(sandbox->invoke([](Sandbox &s) {
        s.store<std::uint8_t>(0, kWasmPageSize - 1, 1);
        s.store<std::uint8_t>(1, kWasmPageSize - 1, 2);
    }));
    EXPECT_FALSE(sandbox->invoke(
        [](Sandbox &s) { s.load<std::uint8_t>(1, kWasmPageSize); }));
    EXPECT_EQ(sandbox->stats().traps, 1u);
    EXPECT_EQ(sandbox->backend().lastTrapReason(),
              core::ExitReason::HmovBoundsViolation);
    EXPECT_FALSE(sandbox->invoke(
        [](Sandbox &s) { s.load<std::uint8_t>(0, kWasmPageSize); }));
    EXPECT_EQ(sandbox->stats().traps, 2u);
}

TEST_F(MultiMemoryTest, GrowIsARegisterUpdate)
{
    auto sandbox = instance(2, 1, 8);
    ASSERT_TRUE(sandbox);
    sandbox->enter();
    EXPECT_THROW(sandbox->load<std::uint8_t>(1, kWasmPageSize), SandboxTrap);
    const auto mprotects = mmu.stats().mprotectCalls;
    const auto updates = ctx.stats().regionUpdates;
    EXPECT_EQ(sandbox->memoryGrow(1, 1), 1);
    EXPECT_EQ(mmu.stats().mprotectCalls, mprotects); // no syscall
    EXPECT_EQ(ctx.stats().regionUpdates, updates + 1);
    EXPECT_EQ(std::get<core::ExplicitDataRegion>(explicitRegion(1)).bound,
              2 * kWasmPageSize);
    EXPECT_EQ(sandbox->load<std::uint8_t>(1, kWasmPageSize), 0);
    EXPECT_EQ(sandbox->stats().rebinds, 1u);
    sandbox->exit();
}

TEST_F(MultiMemoryTest, GrowBeyondMaxFails)
{
    auto sandbox = instance(2, 1, 4);
    ASSERT_TRUE(sandbox);
    EXPECT_EQ(sandbox->memoryGrow(1, 10), -1);
    EXPECT_EQ(sandbox->memoryGrow(1, 3), 1);
    EXPECT_EQ(sandbox->memoryGrow(1, 1), -1);
}

TEST_F(MultiMemoryTest, FootprintIsGuardFree)
{
    // §2: each guard-page memory costs 8 GiB; eight HFI memories of
    // 1 MiB max cost exactly 8 MiB.
    auto sandbox = instance(8, 1, 16);
    ASSERT_TRUE(sandbox);
    EXPECT_EQ(mmu.addressSpace().reservedBytes(), 8ULL << 20);
    EXPECT_EQ(sandbox->backend().reservedVaBytes(), 1ULL << 20);
}

TEST_F(MultiMemoryTest, ManyMemoriesStillCorrect)
{
    // 32 memories, 31 of them over 3 registers: heavy multiplexing must
    // stay correct. A cyclic order longer than the registers rebinds
    // on every access.
    auto sandbox = instance(32);
    ASSERT_TRUE(sandbox);
    sandbox->enter();
    for (unsigned m = 0; m < 32; ++m)
        sandbox->store<std::uint64_t>(m, 8 * m, 0x1000 + m);
    for (unsigned m = 0; m < 32; ++m)
        EXPECT_EQ(sandbox->load<std::uint64_t>(m, 8 * m), 0x1000u + m);
    EXPECT_EQ(sandbox->stats().rebinds, 62u);
    sandbox->exit();
}

TEST_F(MultiMemoryTest, AddMemoryIsHfiOnly)
{
    for (BackendKind kind : {BackendKind::GuardPages, BackendKind::BoundsCheck,
                             BackendKind::Mask}) {
        SCOPED_TRACE(backendKindName(kind));
        Sandbox sandbox(mmu, ctx, kind, paperCosts(kind), {1, 16});
        ASSERT_TRUE(sandbox.valid());
        const std::uint64_t reserved = mmu.addressSpace().reservedBytes();
        EXPECT_THROW(sandbox.addMemory(1, 16), std::invalid_argument);
        EXPECT_EQ(mmu.addressSpace().reservedBytes(), reserved);
    }
}

TEST_F(MultiMemoryTest, AccessesAreChargedLikeHeapAccesses)
{
    SandboxOptions opts{1, 16, /*icacheSensitivity*/ 100};
    Sandbox sandbox(mmu, ctx, BackendKind::Hfi, paperCosts(BackendKind::Hfi),
                    opts);
    ASSERT_TRUE(sandbox.addMemory(1, 16));
    // Page the heap in and bind memory 1, so only the charge differs.
    ASSERT_TRUE(sandbox.invoke([](Sandbox &s) {
        s.store<std::uint32_t>(0, 0, 1);
        s.store<std::uint32_t>(1, 0, 1);
    }));
    auto cycles = [&](unsigned memory) {
        const auto start = clock.now();
        EXPECT_TRUE(sandbox.invoke([memory](Sandbox &s) {
            for (std::uint32_t i = 0; i < 1000; ++i) {
                s.store<std::uint32_t>(memory, 4 * i, i);
                EXPECT_EQ(s.load<std::uint32_t>(memory, 4 * i), i);
            }
        }));
        return clock.now() - start;
    };
    EXPECT_EQ(cycles(1), cycles(0));
    EXPECT_EQ(sandbox.stats().loads, 2000u);
    EXPECT_EQ(sandbox.stats().stores, 2002u);
    EXPECT_EQ(sandbox.stats().rebinds, 1u);
}

TEST_F(MultiMemoryTest, DestroyClearsEveryBoundRegister)
{
    // A register left describing a freed memory would admit accesses to
    // whatever the address space places there next.
    auto sandbox = instance(4);
    ASSERT_TRUE(sandbox);
    ASSERT_TRUE(sandbox->invoke([](Sandbox &s) {
        for (unsigned m = 0; m < 4; ++m)
            s.store<std::uint32_t>(m, 0, m);
    }));
    for (unsigned i = 0; i < core::kNumExplicitRegions; ++i) {
        EXPECT_TRUE(std::holds_alternative<core::ExplicitDataRegion>(
            explicitRegion(i)));
    }
    sandbox.reset();
    for (unsigned i = 0; i < core::kNumExplicitRegions; ++i) {
        EXPECT_TRUE(
            std::holds_alternative<core::EmptyRegion>(explicitRegion(i)))
            << "explicit register " << i;
    }
    EXPECT_EQ(mmu.addressSpace().reservedBytes(), 0u);
}

TEST_F(MultiMemoryTest, EnterReloadsAStaleBinding)
{
    auto sandbox = instance(2);
    ASSERT_TRUE(sandbox);
    ASSERT_TRUE(sandbox->invoke(
        [](Sandbox &s) { s.store<std::uint64_t>(1, 64, 0x1234); }));
    // While the instance is out, memory 1's register is rewritten to a
    // 1 MiB region: its 64 KiB backing store would be read past.
    core::ExplicitDataRegion wide =
        std::get<core::ExplicitDataRegion>(explicitRegion(1));
    wide.bound = 1ULL << 20;
    ASSERT_EQ(ctx.setRegion(core::kFirstExplicitRegion + 1, wide),
              core::HfiResult::Ok);
    EXPECT_FALSE(sandbox->invoke(
        [](Sandbox &s) { s.load<std::uint64_t>(1, 200000); }));
    EXPECT_EQ(sandbox->backend().lastTrapReason(),
              core::ExitReason::HmovBoundsViolation);
    ASSERT_EQ(ctx.setRegion(core::kFirstExplicitRegion + 1, wide),
              core::HfiResult::Ok);
    std::uint64_t value = 0;
    EXPECT_TRUE(sandbox->invoke(
        [&value](Sandbox &s) { value = s.load<std::uint64_t>(1, 64); }));
    EXPECT_EQ(value, 0x1234u);
    EXPECT_EQ(sandbox->stats().rebinds, 1u); // reloaded, not rebound
    // Warm dispatch reloads it the same way.
    ASSERT_EQ(ctx.setRegion(core::kFirstExplicitRegion + 1, wide),
              core::HfiResult::Ok);
    sandbox->rebindRegions();
    EXPECT_EQ(std::get<core::ExplicitDataRegion>(explicitRegion(1)).bound,
              kWasmPageSize);
}

/**
 * The naive LRU: a recency list of (memory, slot), most recent first; a
 * miss takes the lowest unused slot, or else the list's tail.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(unsigned slots) : slots_(slots) {}

    LruBinder::Binding
    bind(unsigned memory)
    {
        for (auto it = recency_.begin(); it != recency_.end(); ++it) {
            if (it->first == memory) {
                recency_.splice(recency_.begin(), recency_, it);
                return {it->second, true, LruBinder::kNone};
            }
        }
        LruBinder::Binding miss{0, false, LruBinder::kNone};
        if (recency_.size() < slots_) {
            while (used(miss.slot))
                ++miss.slot;
        } else {
            miss.slot = recency_.back().second;
            miss.evicted = recency_.back().first;
            recency_.pop_back();
        }
        recency_.emplace_front(memory, miss.slot);
        return miss;
    }

  private:
    bool
    used(unsigned slot) const
    {
        for (const auto &entry : recency_) {
            if (entry.second == slot)
                return true;
        }
        return false;
    }

    unsigned slots_;
    std::list<std::pair<unsigned, unsigned>> recency_;
};

TEST(LruBinder, MatchesListReference)
{
    for (unsigned slots = 1; slots <= LruBinder::kMaxSlots; ++slots) {
        for (unsigned memories = 1; memories <= 40; ++memories) {
            SCOPED_TRACE(testing::Message()
                         << slots << " slots, " << memories << " memories");
            std::mt19937 rng(1000 * slots + memories);
            // Half the draws come from a hot set one slot wider than the
            // binder, so hits, misses and evictions all occur.
            std::uniform_int_distribution<unsigned> any(0, memories - 1);
            std::uniform_int_distribution<unsigned> hot(
                0, std::min(memories, slots + 1) - 1);
            LruBinder binder(slots);
            ReferenceLru reference(slots);
            for (int op = 0; op < 10000; ++op) {
                const unsigned memory = rng() % 2 ? hot(rng) : any(rng);
                const LruBinder::Binding got = binder.bind(memory);
                const LruBinder::Binding want = reference.bind(memory);
                ASSERT_EQ(got.slot, want.slot) << "op " << op;
                ASSERT_EQ(got.hit, want.hit) << "op " << op;
                ASSERT_EQ(got.evicted, want.evicted) << "op " << op;
                ASSERT_EQ(binder.slotOf(memory), static_cast<int>(got.slot));
                ASSERT_EQ(binder.memoryAt(got.slot), memory);
            }
        }
    }
}

TEST(LruBinder, CyclicOrderMissesLikeFifo)
{
    // bench/ablation_regions binds memory i % K at step i. There LRU
    // evicts the oldest binding, as FIFO does, so the pinned table holds.
    for (unsigned slots : {2u, 4u, 8u}) {
        for (unsigned memories : {1u, 2u, 4u, 6u, 8u, 12u, 16u, 32u}) {
            SCOPED_TRACE(testing::Message()
                         << slots << " slots, " << memories << " memories");
            LruBinder binder(slots);
            std::vector<int> fifo(slots, -1);
            unsigned next = 0;
            unsigned lru_misses = 0;
            unsigned fifo_misses = 0;
            for (unsigned i = 0; i < 20000; ++i) {
                const unsigned memory = i % memories;
                const LruBinder::Binding binding = binder.bind(memory);
                lru_misses += !binding.hit;
                unsigned slot = 0;
                while (slot < slots && fifo[slot] != static_cast<int>(memory))
                    ++slot;
                if (slot == slots) {
                    slot = next;
                    next = (next + 1) % slots;
                    fifo[slot] = static_cast<int>(memory);
                    ++fifo_misses;
                }
                ASSERT_EQ(binding.slot, slot) << "step " << i;
            }
            EXPECT_EQ(lru_misses, fifo_misses);
            EXPECT_EQ(lru_misses, memories <= slots ? memories : 20000u);
        }
    }
}

} // namespace
