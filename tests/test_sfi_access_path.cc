/**
 * @file
 * Differential and exhaustive tests for the Sandbox access path.
 *
 * The inline path (accept, byte-map first touch, cached charge) and the
 * span accessors must be indistinguishable from the plain rule they
 * replace: ask the backend's checkAccess, fault a page in on its first
 * touch, charge one access, move the bytes. ReferencePath below is that
 * rule, rebuilt from public APIs only; seeded streams of mixed-width
 * loads, stores, spans and memory_grow calls run through both on every
 * backend, and every observable — bytes, traps, counters, page faults,
 * cycles — must agree. The HFI accept is also checked exhaustively
 * against AccessChecker::checkHmov near every edge of its region.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checker.h"
#include "sfi/sandbox.h"
#include "splitmix.h"

namespace
{

using namespace hfi;
using namespace hfi::sfi;

using hfi::test::nextRandom;

/** Call @p f with a value of the unsigned type that is @p width wide. */
template <typename F>
void
byWidth(std::uint32_t width, F &&f)
{
    switch (width) {
      case 1: f(std::uint8_t{}); break;
      case 2: f(std::uint16_t{}); break;
      case 4: f(std::uint32_t{}); break;
      default: f(std::uint64_t{}); break;
    }
}

/**
 * The per-access rule as it was before the inline path: checkAccess,
 * then a first-touch probe over a maxPages-sized map, then one charge.
 * Counts what Sandbox::stats() counts; the Sandbox it wraps is used
 * only for its backend, memory and Mmu.
 */
class ReferencePath
{
  public:
    ReferencePath(Sandbox &s, const SandboxOptions &opts)
        : s(s), touched(opts.maxPages * (kWasmPageSize / vm::kPageSize))
    {
        const BackendCosts &c = s.backend().costs();
        const std::uint64_t icache =
            s.backend().kind() == BackendKind::Hfi
                ? Backend::kIcacheMilliPerAccess * opts.icacheSensitivity
                : 0;
        accessMilli = 1000 + c.accessMilli + icache + c.opPressureMilli;
    }

    template <typename T>
    T
    load(std::uint64_t offset)
    {
        const std::uint64_t at = checked(offset, sizeof(T), false);
        ++loads;
        milli += accessMilli;
        return s.memory().load<T>(at);
    }

    template <typename T>
    void
    store(std::uint64_t offset, T value)
    {
        const std::uint64_t at = checked(offset, sizeof(T), true);
        ++stores;
        milli += accessMilli;
        s.memory().store<T>(at, value);
    }

    std::uint64_t loads = 0, stores = 0, wrapped = 0, milli = 0;

  private:
    std::uint64_t
    checked(std::uint64_t offset, std::uint32_t width, bool write)
    {
        const AccessCheck check =
            s.backend().checkAccess(offset, width, write, s.memory());
        if (check.outcome == AccessOutcome::Trap)
            throw SandboxTrap(offset, width, write);
        if (check.outcome == AccessOutcome::Wrapped)
            ++wrapped;
        // The access faults in the page of its first byte and the page
        // of its last.
        const std::uint64_t first = check.offset / vm::kPageSize;
        const std::uint64_t last = (check.offset + width - 1) / vm::kPageSize;
        if (last < touched.size() && (!touched[first] || !touched[last])) {
            touched[first] = true;
            touched[last] = true;
            s.mmu().access(s.backend().baseAddress() + check.offset, width);
        }
        return check.offset;
    }

    Sandbox &s;
    std::vector<bool> touched;
    std::uint64_t accessMilli = 0;
};

enum class OpKind
{
    Load,
    Store,
    LoadSpan,
    StoreSpan,
    Grow,
};

/** One pre-generated step of a stream. */
struct Op
{
    OpKind kind = OpKind::Load;
    std::uint32_t width = 1;
    std::uint64_t offset = 0;
    std::uint64_t value = 0;
    std::uint32_t count = 1; ///< span elements, or pages to grow
};

/**
 * A seeded stream, generated up front (RandWorkLoad-style) against the
 * memory size the stream's own grows produce: in-bounds accesses,
 * accesses straddling the bound or a 4 KiB page edge, far out-of-bounds
 * offsets, offsets that overflow u64 once the width is added, offsets
 * just below 2^63 (negative as an hmov index beyond it), spans that
 * start inside and end outside the memory, and spans whose last element
 * alone reaches across a 4 KiB page edge (the page a span's last byte
 * lands on, not its last element's first byte, must fault).
 */
std::vector<Op>
makeStream(std::uint64_t seed, std::size_t length, const SandboxOptions &opts)
{
    std::uint64_t rng = seed;
    auto below = [&](std::uint64_t n) { return nextRandom(rng) % n; };
    std::uint64_t pages = opts.initialPages;
    std::vector<Op> ops(length);
    for (Op &op : ops) {
        const std::uint64_t roll = below(100);
        if (roll < 3) {
            op.kind = OpKind::Grow;
            op.count = static_cast<std::uint32_t>(1 + below(3));
            if (pages + op.count <= opts.maxPages)
                pages += op.count;
            continue;
        }
        op.kind = roll < 45   ? OpKind::Load
                  : roll < 85 ? OpKind::Store
                  : roll < 93 ? OpKind::LoadSpan
                              : OpKind::StoreSpan;
        op.width = 1u << below(4);
        op.value = nextRandom(rng);
        const bool span =
            op.kind == OpKind::LoadSpan || op.kind == OpKind::StoreSpan;
        // Mostly short spans, some long enough to cross several pages.
        op.count = !span             ? 1
                   : below(8) == 0 ? static_cast<std::uint32_t>(1 + below(1500))
                                   : static_cast<std::uint32_t>(1 + below(48));
        const std::uint64_t size = pages * kWasmPageSize;
        const std::uint64_t bytes = std::uint64_t{op.width} * op.count;
        switch (below(11)) {
          case 0:
          case 1:
          case 2:
          case 3:
            op.offset = below(size - bytes + 1);
            break;
          case 4: // across the bound, or just inside / outside it
            op.offset = size - bytes + below(2 * bytes + 8) - 4;
            break;
          case 5: // across a 4 KiB page edge
            op.offset = (1 + below(size / vm::kPageSize - 1)) * vm::kPageSize -
                        below(bytes + 1);
            break;
          case 6:
            op.offset = size + below(1ULL << 34);
            break;
          case 7: // wraps u64 when the width is added
            op.offset = ~0ULL - below(bytes + 8);
            break;
          case 8:
            op.offset = (1ULL << 63) - below(16);
            break;
          case 9: { // the last element alone straddles a 4 KiB page edge
            const std::uint64_t lowest = bytes / vm::kPageSize + 1;
            const std::uint64_t pages4k = size / vm::kPageSize;
            const std::uint64_t edge =
                (lowest + below(pages4k > lowest ? pages4k - lowest : 1)) *
                vm::kPageSize;
            const std::uint64_t last =
                edge - 1 - below(op.width > 1 ? op.width - 1 : 1);
            op.offset = last - std::uint64_t{op.count - 1} * op.width;
            break;
          }
          default:
            op.offset = below(64);
            break;
        }
    }
    return ops;
}

/** What one op did, for comparing the two paths. */
struct Observed
{
    bool trapped = false;
    std::uint64_t trapOffset = 0;
    std::uint32_t trapWidth = 0;
    bool trapWrite = false;
    std::int64_t grew = 0;
    std::vector<std::uint64_t> values;

    bool
    operator==(const Observed &o) const
    {
        return trapped == o.trapped && trapOffset == o.trapOffset &&
               trapWidth == o.trapWidth && trapWrite == o.trapWrite &&
               grew == o.grew && values == o.values;
    }
};

/** One sandbox with its own clock, Mmu and HFI context. */
struct World
{
    World(BackendKind kind, const SandboxOptions &opts)
    {
        sandbox = std::make_unique<Sandbox>(mmu, ctx, kind, opts);
    }

    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
    std::unique_ptr<Sandbox> sandbox;
};

/**
 * Run @p body as one invocation of @p s, recording a trap's operands
 * into @p obs before invoke() counts it.
 */
void
invokeObserved(Sandbox &s, Observed &obs, const std::function<void()> &body)
{
    obs.trapped = !s.invoke([&](Sandbox &) {
        try {
            body();
        } catch (const SandboxTrap &trap) {
            obs.trapOffset = trap.offset();
            obs.trapWidth = trap.width();
            obs.trapWrite = trap.isWrite();
            throw;
        }
    });
}

/** Op @p op on the Sandbox access path, spans through loadN/storeN. */
Observed
runSubject(Sandbox &s, const Op &op)
{
    Observed obs;
    if (op.kind == OpKind::Grow) {
        obs.grew = s.memoryGrow(op.count);
        return obs;
    }
    byWidth(op.width, [&](auto tag) {
        using T = decltype(tag);
        std::vector<T> buf(op.count);
        for (std::uint32_t i = 0; i < op.count; ++i)
            buf[i] = static_cast<T>(op.value + i);
        invokeObserved(s, obs, [&] {
            switch (op.kind) {
              case OpKind::Load: buf[0] = s.load<T>(op.offset); break;
              case OpKind::Store: s.store<T>(op.offset, buf[0]); break;
              case OpKind::LoadSpan:
                s.loadN(op.offset, buf.data(), op.count);
                break;
              default: s.storeN(op.offset, buf.data(), op.count); break;
            }
        });
        obs.values.assign(buf.begin(), buf.end());
    });
    return obs;
}

/** Op @p op on the reference rule, spans as element loops. */
Observed
runReference(Sandbox &s, ReferencePath &ref, const Op &op)
{
    Observed obs;
    if (op.kind == OpKind::Grow) {
        obs.grew = s.memoryGrow(op.count);
        return obs;
    }
    byWidth(op.width, [&](auto tag) {
        using T = decltype(tag);
        std::vector<T> buf(op.count);
        for (std::uint32_t i = 0; i < op.count; ++i)
            buf[i] = static_cast<T>(op.value + i);
        const bool write =
            op.kind == OpKind::Store || op.kind == OpKind::StoreSpan;
        invokeObserved(s, obs, [&] {
            for (std::uint32_t i = 0; i < op.count; ++i) {
                const std::uint64_t at = op.offset + i * sizeof(T);
                if (write)
                    ref.store<T>(at, buf[i]);
                else
                    buf[i] = ref.load<T>(at);
            }
        });
        obs.values.assign(buf.begin(), buf.end());
    });
    return obs;
}

std::string
describe(const Op &op, std::size_t index)
{
    static const char *const kNames[] = {"load", "store", "loadN", "storeN",
                                         "grow"};
    std::ostringstream os;
    os << "op " << index << ": " << kNames[static_cast<int>(op.kind)]
       << " width " << op.width << " x" << op.count << " at 0x" << std::hex
       << op.offset;
    return os.str();
}

class AccessPathDifferential
    : public ::testing::TestWithParam<BackendKind>
{
  protected:
    /** Run @p ops through both paths and compare every observable. */
    void
    compare(const std::vector<Op> &ops, const SandboxOptions &opts)
    {
        World subject(GetParam(), opts);
        World reference(GetParam(), opts);
        ASSERT_TRUE(subject.sandbox->valid() && reference.sandbox->valid());
        Sandbox &s = *subject.sandbox;
        ReferencePath ref(*reference.sandbox, opts);

        for (std::size_t i = 0; i < ops.size(); ++i) {
            const Observed got = runSubject(s, ops[i]);
            const Observed want =
                runReference(*reference.sandbox, ref, ops[i]);
            ASSERT_TRUE(got == want) << describe(ops[i], i);
            // Per op: a page one path faults late would even out in the
            // totals once a later access touched it.
            ASSERT_EQ(subject.mmu.stats().pageFaults,
                      reference.mmu.stats().pageFaults)
                << describe(ops[i], i);
        }
        // The reference charged its accesses to a counter; flush it.
        reference.clock.tick(ref.milli / 1000);

        const SandboxStats &st = s.stats();
        EXPECT_EQ(st.loads, ref.loads);
        EXPECT_EQ(st.stores, ref.stores);
        EXPECT_EQ(st.wrappedAccesses, ref.wrapped);
        EXPECT_EQ(st.traps, reference.sandbox->stats().traps);
        EXPECT_EQ(st.growCalls, reference.sandbox->stats().growCalls);
        EXPECT_EQ(subject.mmu.stats().pageFaults,
                  reference.mmu.stats().pageFaults);
        EXPECT_EQ(subject.clock.now(), reference.clock.now());
        ASSERT_EQ(s.memory().size(), reference.sandbox->memory().size());
        EXPECT_EQ(std::memcmp(s.memory().data(),
                              reference.sandbox->memory().data(),
                              s.memory().size()),
                  0);
    }
};

TEST_P(AccessPathDifferential, SeededMixedWidthStreams)
{
    // A nonzero icache sensitivity puts every cost term in the charge.
    // Up to 4 MiB of memory: untouched pages remain for spans to fault.
    const SandboxOptions opts{2, 64, 37};
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        compare(makeStream(seed, 3000, opts), opts);
    }
}

TEST_P(AccessPathDifferential, SpansAcrossTheBoundMatchTheElementLoop)
{
    // Each span crosses the bound: the trapping backends stop at the
    // first element past it, keeping the stores before it; the mask
    // backend wraps the elements past it. Counters include only the
    // elements that ran.
    const SandboxOptions opts{1, 4};
    std::vector<Op> ops;
    for (OpKind kind : {OpKind::StoreSpan, OpKind::LoadSpan}) {
        for (std::uint32_t width : {1u, 2u, 4u, 8u}) {
            Op op;
            op.kind = kind;
            op.width = width;
            op.count = 16;
            op.value = 0x0123456789abcdefULL * width;
            op.offset = kWasmPageSize - 5 * width - 1;
            ops.push_back(op);
            op.offset = kWasmPageSize - 4 * width; // ends exactly at it
            ops.push_back(op);
        }
    }
    compare(ops, opts);
}

INSTANTIATE_TEST_SUITE_P(Backends, AccessPathDifferential,
                         ::testing::Values(BackendKind::GuardPages,
                                           BackendKind::BoundsCheck,
                                           BackendKind::Mask,
                                           BackendKind::Hfi),
                         [](const auto &info) {
                             std::string name =
                                 backendKindName(info.param);
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(AccessPathSpans, AcceptedSpanChargesAsManyAccesses)
{
    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
    Sandbox span(mmu, ctx, BackendKind::BoundsCheck, {2, 4});
    Sandbox loop(mmu, ctx, BackendKind::BoundsCheck, {2, 4});
    ASSERT_TRUE(span.valid() && loop.valid());

    std::uint32_t src[3000];
    for (std::uint32_t i = 0; i < 3000; ++i)
        src[i] = i * 2654435761u;
    // 12000 bytes from offset 100: three page edges, one span.
    const auto c0 = clock.now();
    span.storeN(100, src, 3000);
    span.flushCharge();
    const auto spanCycles = clock.now() - c0;
    const auto c1 = clock.now();
    for (std::uint32_t i = 0; i < 3000; ++i)
        loop.store<std::uint32_t>(100 + i * 4, src[i]);
    loop.flushCharge();
    EXPECT_EQ(spanCycles, clock.now() - c1);
    EXPECT_EQ(span.stats().stores, 3000u);

    std::uint32_t back[3000] = {};
    span.loadN(100, back, 3000);
    EXPECT_EQ(std::memcmp(back, src, sizeof(src)), 0);
    EXPECT_EQ(span.stats().loads, 3000u);

    // An empty span touches nothing, even out of bounds.
    span.loadN<std::uint64_t>(1ULL << 40, nullptr, 0);
    EXPECT_EQ(span.stats().loads, 3000u);
}

TEST(AccessPathSpans, RefusedCheckedSpanTouchesAndChargesNothing)
{
    for (BackendKind kind : {BackendKind::GuardPages, BackendKind::BoundsCheck,
                             BackendKind::Mask, BackendKind::Hfi}) {
        SCOPED_TRACE(backendKindName(kind));
        vm::VirtualClock clock;
        vm::Mmu mmu{clock};
        core::HfiContext ctx{clock};
        Sandbox s(mmu, ctx, kind, {1, 4});
        ASSERT_TRUE(s.valid());

        // Three pages in bounds and one element past the end: refused
        // whole, as are a store straddling the end and an empty span.
        const std::uint64_t at = kWasmPageSize - 3 * vm::kPageSize;
        const std::size_t n = 3 * vm::kPageSize / 4;
        const std::uint64_t faults = mmu.stats().pageFaults;
        const vm::Cycles c0 = clock.now();
        EXPECT_EQ(s.checkedSpan(at, 4, n + 1, false), nullptr);
        EXPECT_EQ(s.checkedSpan(kWasmPageSize - 4, 8, 1, true), nullptr);
        EXPECT_EQ(s.checkedSpan(at, 4, 0, false), nullptr);
        s.flushCharge();
        EXPECT_EQ(mmu.stats().pageFaults, faults);
        EXPECT_EQ(clock.now(), c0);
        EXPECT_EQ(s.stats().loads + s.stats().stores, 0u);
        EXPECT_EQ(s.stats().wrappedAccesses, 0u);

        // Accepted, the same span is paged in and still uncharged; charged
        // as n stores it costs what n store<uint32_t> calls cost.
        const vm::Cycles c1 = clock.now();
        EXPECT_EQ(s.checkedSpan(at, 4, n, true), s.memory().data() + at);
        EXPECT_EQ(mmu.stats().pageFaults, faults + 3);
        EXPECT_EQ(s.stats().stores, 0u);
        s.chargeAccesses(n, true);
        s.flushCharge();
        EXPECT_EQ(s.stats().stores, n);
        const vm::Cycles spanCycles = clock.now() - c1;

        Sandbox loop(mmu, ctx, kind, {1, 4});
        ASSERT_TRUE(loop.valid());
        const vm::Cycles c2 = clock.now();
        for (std::size_t i = 0; i < n; ++i)
            loop.store<std::uint32_t>(at + i * 4, 0);
        loop.flushCharge();
        EXPECT_EQ(spanCycles, clock.now() - c2);
    }
}

// ------------------------------------------------------------ HFI accept

class HfiLiveRegister : public ::testing::Test
{
  protected:
    std::unique_ptr<Sandbox>
    make()
    {
        return std::make_unique<Sandbox>(mmu, ctx, BackendKind::Hfi,
                                         SandboxOptions{1, 8});
    }

    static core::ExitReason
    lastTrap(Sandbox &s)
    {
        return s.backend().lastTrapReason();
    }

    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
};

TEST_F(HfiLiveRegister, ClearedRegionTrapsUntilRebound)
{
    auto s = make();
    ASSERT_TRUE(s->valid());
    s->store<std::uint32_t>(128, 7);
    ASSERT_EQ(ctx.clearRegion(core::kFirstExplicitRegion + 0),
              core::HfiResult::Ok);
    EXPECT_THROW(s->load<std::uint32_t>(128), SandboxTrap);
    EXPECT_EQ(lastTrap(*s), core::ExitReason::HmovEmptyRegion);
    std::uint32_t out[2];
    EXPECT_THROW(s->loadN(128, out, 2), SandboxTrap);
    EXPECT_EQ(s->stats().loads, 0u);

    s->rebindRegions();
    EXPECT_EQ(s->load<std::uint32_t>(128), 7u);
}

TEST_F(HfiLiveRegister, SwappedRegisterFileTrapsUntilRebound)
{
    auto s = make();
    ASSERT_TRUE(s->valid());
    s->store<std::uint64_t>(64, 0xabcdef);
    // Another process's (empty) HFI state is context-switched in.
    ctx.kernelXrstor(core::HfiRegisterFile{});
    EXPECT_THROW(s->store<std::uint64_t>(64, 1), SandboxTrap);
    EXPECT_EQ(lastTrap(*s), core::ExitReason::HmovEmptyRegion);

    s->rebindRegions();
    EXPECT_EQ(s->load<std::uint64_t>(64), 0xabcdefu);
}

TEST_F(HfiLiveRegister, ShrunkRegionTrapsPastItsNewBound)
{
    auto s = make();
    ASSERT_TRUE(s->valid());
    ASSERT_EQ(s->memoryGrow(1), 1);
    s->store<std::uint8_t>(kWasmPageSize + 3, 1);
    // A narrower region in the same register takes effect at once.
    core::ExplicitDataRegion narrow;
    narrow.baseAddress = s->backend().baseAddress();
    narrow.bound = kWasmPageSize;
    narrow.permRead = narrow.permWrite = true;
    narrow.isLargeRegion = true;
    ASSERT_EQ(ctx.setRegion(core::kFirstExplicitRegion + 0, narrow),
              core::HfiResult::Ok);
    EXPECT_THROW(s->load<std::uint8_t>(kWasmPageSize + 3), SandboxTrap);
    EXPECT_EQ(lastTrap(*s), core::ExitReason::HmovBoundsViolation);
    EXPECT_EQ(s->load<std::uint8_t>(kWasmPageSize - 1), 0u);
}

TEST(HfiAccept, ExhaustiveNearEveryEdgeMatchesCheckHmov)
{
    vm::VirtualClock clock;
    core::HfiContext ctx{clock};
    const unsigned slot = 1;
    const unsigned reg = core::kFirstExplicitRegion + slot;
    struct Perm
    {
        bool read, write;
    };
    std::uint64_t checked = 0;
    for (std::uint64_t bound : {64ULL << 10, 128ULL << 10, 4ULL << 30}) {
        for (bool large : {true, false}) {
            for (Perm perm : {Perm{true, true}, Perm{true, false},
                              Perm{false, true}}) {
                core::ExplicitDataRegion region;
                region.baseAddress = 1ULL << 40;
                region.bound = bound;
                region.permRead = perm.read;
                region.permWrite = perm.write;
                region.isLargeRegion = large;
                ASSERT_EQ(ctx.setRegion(reg, region), core::HfiResult::Ok);
                const core::FlatRegionSlot &heap =
                    ctx.registerFile().flat(reg);
                for (std::uint64_t edge : {std::uint64_t{0}, bound}) {
                    for (std::int64_t d = -64; d <= 64; ++d) {
                        const std::uint64_t offset =
                            edge + static_cast<std::uint64_t>(d);
                        for (std::uint32_t width : {1u, 2u, 4u, 8u}) {
                            for (bool write : {false, true}) {
                                core::HmovOperands ops;
                                ops.index =
                                    static_cast<std::int64_t>(offset);
                                ops.width = width;
                                const bool hw =
                                    core::AccessChecker::checkHmov(
                                        ctx, slot, ops, write)
                                        .ok;
                                ASSERT_EQ(Backend::heapAccepts(
                                              heap, offset, width, write),
                                          hw)
                                    << "bound " << bound << " large "
                                    << large << " offset " << offset
                                    << " width " << width << " write "
                                    << write;
                                ++checked;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(checked, 3u * 2 * 3 * 2 * 129 * 4 * 2);

    // A cleared register accepts nothing.
    ASSERT_EQ(ctx.clearRegion(reg), core::HfiResult::Ok);
    EXPECT_FALSE(Backend::heapAccepts(ctx.registerFile().flat(reg), 0, 1,
                                      false));
}

// -------------------------------------------------------- SandboxTrap

TEST(SandboxTrapMessage, FormattedOnFirstUseExactlyAsBefore)
{
    const SandboxTrap store(0x10004, 4, true);
    EXPECT_STREQ(store.what(),
                 "sandbox trap: store of 4 bytes at offset 0x10004");
    EXPECT_STREQ(store.what(),
                 "sandbox trap: store of 4 bytes at offset 0x10004");
    const SandboxTrap load(0xffffffffffffffffULL, 8, false);
    EXPECT_STREQ(load.what(),
                 "sandbox trap: load of 8 bytes at offset "
                 "0xffffffffffffffff");
    // A copy made before the first what() formats its own.
    const SandboxTrap first(0, 1, false);
    const SandboxTrap copy = first;
    EXPECT_STREQ(copy.what(), "sandbox trap: load of 1 bytes at offset 0x0");
    const std::runtime_error &base = first;
    EXPECT_STREQ(base.what(), "sandbox trap: load of 1 bytes at offset 0x0");
}

} // namespace
