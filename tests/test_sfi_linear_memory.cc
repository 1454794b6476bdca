/**
 * @file
 * Tests for the Wasm-style linear memory: 64 KiB-page growth semantics,
 * typed access, and zeroing of reused backing stores after a write
 * through each path that can dirty one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sfi/linear_memory.h"
#include "sfi/sandbox.h"

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
        Sandbox s(mmu, ctx, kind, {4, 64});
        ASSERT_TRUE(s.valid());
        // 4 + delta wraps to 1.
        EXPECT_EQ(s.memoryGrow(std::numeric_limits<std::uint64_t>::max() - 2),
                  -1);
        EXPECT_EQ(s.memory().pages(), 4u);
        s.store<std::uint8_t>(4 * kWasmPageSize - 1, 1);
        EXPECT_EQ(s.load<std::uint8_t>(4 * kWasmPageSize - 1), 1u);
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
        EXPECT_THROW(Sandbox(mmu, ctx, kind, {4, 1}), std::invalid_argument);
        EXPECT_EQ(mmu.addressSpace().reservedBytes(), 0u);
    }
    hfi::vm::VirtualClock clock;
    hfi::vm::Mmu mmu(clock);
    hfi::core::HfiContext ctx(clock);
    Sandbox sandbox(mmu, ctx, BackendKind::Hfi);
    const std::uint64_t heap = mmu.addressSpace().reservedBytes();
    EXPECT_THROW(sandbox.addMemory(4, 1), std::invalid_argument);
    EXPECT_EQ(mmu.addressSpace().reservedBytes(), heap);
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

// ------------------------------------------------------------ store reuse
//
// One case per write path. Each writes through its path, among other
// places into the last bytes its marks must cover, destroys the memory,
// and hands its store to expectReusedStoreReadsZero. Deleting any one
// path's mark fails its case.

/** The store a memory gives back when it is destroyed. */
struct GivenUp
{
    const std::uint8_t *bytes = nullptr;
    std::uint64_t capacity = 0;
};

GivenUp
givenUp(const LinearMemory &mem)
{
    return {mem.data(), mem.capacity()};
}

/**
 * Take @p store back in a new memory (the newest spare that fits: it
 * was just given up), grow that into all of the store's capacity, and
 * expect every byte to read zero.
 */
void
expectReusedStoreReadsZero(const GivenUp &store)
{
    const std::uint64_t pages = store.capacity / kWasmPageSize;
    ASSERT_GE(pages, 2u);
    const std::uint64_t half = (pages + 1) / 2;
    LinearMemory fresh(half, 64);
    ASSERT_EQ(std::as_const(fresh).data(), store.bytes)
        << "the store was not reused";
    ASSERT_EQ(fresh.grow(pages - half), static_cast<std::int64_t>(half));
    ASSERT_EQ(std::as_const(fresh).data(), store.bytes)
        << "the grow left the store";
    std::vector<std::uint8_t> bytes(fresh.size(), 0xff);
    fresh.readBytes(0, bytes.data(), bytes.size());
    for (std::uint64_t i = 0; i < bytes.size(); ++i)
        ASSERT_EQ(bytes[i], 0) << "byte " << i;
}

TEST(ReusedStore, ZeroAfterLinearMemoryStore)
{
    GivenUp store;
    {
        LinearMemory mem(4, 64);
        mem.store<std::uint8_t>(0, 0xab);
        mem.store<std::uint64_t>(mem.size() - 8, ~0ULL);
        store = givenUp(mem);
    }
    expectReusedStoreReadsZero(store);
}

TEST(ReusedStore, ZeroAfterWriteBytes)
{
    GivenUp store;
    {
        LinearMemory mem(4, 64);
        const std::vector<std::uint8_t> pattern(100, 0xcd);
        mem.writeBytes(mem.size() - pattern.size(), pattern.data(),
                       pattern.size());
        store = givenUp(mem);
    }
    expectReusedStoreReadsZero(store);
}

TEST(ReusedStore, ZeroAfterMutableData)
{
    GivenUp store;
    {
        LinearMemory mem(4, 64);
        mem.data()[mem.size() - 1] = 0xef;
        store = givenUp(mem);
    }
    expectReusedStoreReadsZero(store);
}

TEST(ReusedStore, ZeroAfterGrowPastTheCapacity)
{
    // The grow moves the bytes to a bigger store, which must take their
    // mark with it.
    GivenUp store;
    {
        LinearMemory mem(1, 64);
        mem.store<std::uint64_t>(mem.size() - 8, ~0ULL);
        const std::uint8_t *before = std::as_const(mem).data();
        const std::uint64_t pages = mem.capacity() / kWasmPageSize;
        ASSERT_EQ(mem.grow(pages), 1);
        ASSERT_NE(std::as_const(mem).data(), before);
        EXPECT_EQ(mem.load<std::uint64_t>(kWasmPageSize - 8), ~0ULL);
        store = givenUp(mem);
    }
    expectReusedStoreReadsZero(store);
}

/** One sandbox with its own clock, Mmu and HFI context. */
struct World
{
    explicit World(BackendKind kind)
    {
        sandbox = std::make_unique<Sandbox>(mmu, ctx, kind,
                                            SandboxOptions{4, 64});
    }

    /** Destroy the sandbox; @return the store its memory gave up. */
    GivenUp
    destroy()
    {
        const GivenUp store = givenUp(sandbox->memory());
        sandbox.reset();
        return store;
    }

    hfi::vm::VirtualClock clock;
    hfi::vm::Mmu mmu{clock};
    hfi::core::HfiContext ctx{clock};
    std::unique_ptr<Sandbox> sandbox;
};

constexpr BackendKind kAllKinds[] = {BackendKind::GuardPages,
                                     BackendKind::BoundsCheck,
                                     BackendKind::Mask, BackendKind::Hfi};

/** The first 4 KiB page of linear memory, which the cases touch first. */
constexpr std::uint64_t kPage = hfi::vm::kPageSize;

// The sandbox cases touch page 0, then write a few bytes past its end
// from an access that starts in it. Page 1 is never touched (the checks
// read it through LinearMemory, not the sandbox), so only page 0's first
// touch can mark those bytes.

TEST(ReusedStore, ZeroAfterSandboxStore)
{
    for (BackendKind kind : kAllKinds) {
        SCOPED_TRACE(backendKindName(kind));
        World w(kind);
        ASSERT_TRUE(w.sandbox->valid());
        w.sandbox->store<std::uint8_t>(0, 1);
        w.sandbox->store<std::uint64_t>(kPage - 4, ~0ULL);
        expectReusedStoreReadsZero(w.destroy());
    }
}

TEST(ReusedStore, ZeroAfterStoreNAndCheckedSpan)
{
    for (BackendKind kind : kAllKinds) {
        SCOPED_TRACE(backendKindName(kind));
        World w(kind);
        ASSERT_TRUE(w.sandbox->valid());
        const std::uint32_t words[2] = {0x11111111, 0x22222222};
        w.sandbox->storeN(kPage - 6, words, 2);
        EXPECT_EQ(w.sandbox->memory().load<std::uint16_t>(kPage), 0x2222u);
        std::uint8_t *span = w.sandbox->checkedSpan(kPage - 1, 4, 1, true);
        ASSERT_NE(span, nullptr);
        std::memset(span, 0x33, 4);
        expectReusedStoreReadsZero(w.destroy());
    }
}

TEST(ReusedStore, ZeroAfterStoreAcrossAGrownEnd)
{
    // The last page's first touch cannot mark past the size. After a
    // grow, a store that starts in that page writes the first grown
    // bytes without touching their page, so the grow must mark them.
    for (BackendKind kind : kAllKinds) {
        SCOPED_TRACE(backendKindName(kind));
        World w(kind);
        ASSERT_TRUE(w.sandbox->valid());
        const std::uint64_t old_size = w.sandbox->memory().size();
        w.sandbox->store<std::uint8_t>(old_size - 1, 1);
        ASSERT_EQ(w.sandbox->memoryGrow(1),
                  static_cast<std::int64_t>(old_size / kWasmPageSize));
        w.sandbox->store<std::uint64_t>(old_size - 4, ~0ULL);
        EXPECT_EQ(w.sandbox->memory().load<std::uint32_t>(old_size), ~0u);
        expectReusedStoreReadsZero(w.destroy());
    }
}

TEST(ReusedStore, ZeroAfterMaskWrappedStore)
{
    // Past the bound the mask wraps the store back to page 0's end.
    World w(BackendKind::Mask);
    ASSERT_TRUE(w.sandbox->valid());
    const std::uint64_t size = w.sandbox->memory().size();
    w.sandbox->store<std::uint64_t>(size + kPage - 4, ~0ULL);
    EXPECT_EQ(w.sandbox->stats().wrappedAccesses, 1u);
    EXPECT_EQ(w.sandbox->memory().load<std::uint32_t>(kPage), ~0u);
    expectReusedStoreReadsZero(w.destroy());
}

TEST(ReusedStore, SandboxMarksOnlyWhatItsAccessesCanReach)
{
    // The serving handler's 256 bytes at 64 dirty the two pages an
    // access starting in page 0 can reach, not the 64 KiB memory; a
    // reuse zeroes 8 KiB. Loads mark too: a page first touched by a load
    // is not touched again by a later store into it.
    for (BackendKind kind : kAllKinds) {
        SCOPED_TRACE(backendKindName(kind));
        hfi::vm::VirtualClock clock;
        hfi::vm::Mmu mmu(clock);
        hfi::core::HfiContext ctx(clock);
        auto s = std::make_unique<Sandbox>(mmu, ctx, kind,
                                           SandboxOptions{1, 4});
        ASSERT_TRUE(s->valid());
        const std::vector<std::uint8_t> payload(256, 7);
        s->storeN(64, payload.data(), payload.size());
        EXPECT_EQ(s->memory().dirtyEnd(), 2 * kPage);
        EXPECT_EQ(s->load<std::uint8_t>(5 * kPage), 0u);
        EXPECT_EQ(s->memory().dirtyEnd(), 7 * kPage);
        // A first touch in the last page marks up to the size, no more;
        // a grow extends the mark over the page after it.
        const std::uint64_t size = s->memory().size();
        s->store<std::uint8_t>(size - 1, 1);
        EXPECT_EQ(s->memory().dirtyEnd(), size);
        ASSERT_EQ(s->memoryGrow(1), 1);
        EXPECT_EQ(s->memory().dirtyEnd(), size + kPage);
    }
}

/** Destroy 64 memories (two teardown batches) with 2-page stores. */
void
destroyTwoBatches()
{
    std::vector<LinearMemory> batch;
    batch.reserve(64);
    for (int i = 0; i < 64; ++i)
        batch.emplace_back(1, 2).grow(1);
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
