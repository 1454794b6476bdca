/**
 * @file
 * Seeded destroy-then-reuse property test for sandbox lifecycles.
 *
 * A stream of stores of every width from 1 to 8 bytes, storeN spans,
 * host-side writeBytes staging, memory_grow calls, and destroy/re-create
 * of the sandbox on the same thread runs on every backend. Re-created
 * sizes are drawn so the new memory often takes the store the last one
 * gave up. Whatever the last tenant wrote, a new memory must read zero,
 * and so must the pages a grow adds.
 *
 * The stream is generated per index (lifecycleStep), after SeqWorkLoad's
 * getNextOp: the op picked by power-of-two ratios of the index, the
 * offset taken as bits & (range - 1), or moved into the last bytes of a
 * Wasm page so stores straddle the ends a grow moves. A lifecycle
 * oracle that compares the sandbox against a model after every op can
 * draw the same steps.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sfi/sandbox.h"

namespace
{

using namespace hfi;
using namespace hfi::sfi;

/** splitmix64. */
std::uint64_t
nextRandom(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

enum class LifecycleOp
{
    Store,
    StoreN,
    WriteBytes,
    Grow,
    Recreate,
};

/** One step of the stream; which fields matter depends on the op. */
struct LifecycleStep
{
    LifecycleOp op = LifecycleOp::Store;
    std::uint32_t width = 1;  ///< Store: 1..8; StoreN: 1, 2, 4 or 8
    std::uint32_t count = 1;  ///< StoreN elements, WriteBytes bytes,
                              ///< Grow or Recreate pages
    std::uint64_t offset = 0; ///< in [0, kOffsetRange)
    std::uint64_t value = 0;
};

/** Offsets span the largest memory. */
constexpr std::uint64_t kMaxPages = 8;
constexpr std::uint64_t kOffsetRange = kMaxPages * kWasmPageSize;

/**
 * Step @p index of stream @p seed. Ratios of the index pick the op: one
 * step in 64 re-creates, one in 16 grows, one in 8 stages bytes, one in
 * 4 stores a span and the rest store one value. The offset is uniform
 * in kOffsetRange, so smaller memories see out-of-bounds stores (traps,
 * or wraps under the mask), except that one in four lands in the last
 * 8 bytes of a Wasm page: a memory's end before or after a grow.
 */
LifecycleStep
lifecycleStep(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t state = seed * 0x100000001b3ULL + index;
    const std::uint64_t bits = nextRandom(state);
    LifecycleStep step;
    step.value = nextRandom(state);
    step.offset = bits & (kOffsetRange - 1);
    if (((bits >> 48) & 3) == 0)
        step.offset = (step.offset | (kWasmPageSize - 1)) - ((bits >> 50) & 7);
    if ((index & 63) == 63) {
        step.op = LifecycleOp::Recreate;
        step.count = static_cast<std::uint32_t>(1 + (bits >> 32) % kMaxPages);
    } else if ((index & 15) == 15) {
        step.op = LifecycleOp::Grow;
        step.count = static_cast<std::uint32_t>(1 + (bits >> 32) % 2);
    } else if ((index & 7) == 7) {
        step.op = LifecycleOp::WriteBytes;
        step.count = static_cast<std::uint32_t>(1 + (bits >> 32) % 512);
    } else if ((index & 3) == 3) {
        step.op = LifecycleOp::StoreN;
        step.width = 1u << ((bits >> 32) % 4);
        step.count = static_cast<std::uint32_t>(1 + (bits >> 40) % 64);
    } else {
        step.op = LifecycleOp::Store;
        step.width = static_cast<std::uint32_t>(1 + (bits >> 32) % 8);
    }
    return step;
}

/** A store of exactly @p N bytes. */
template <std::size_t N>
struct Bytes
{
    std::uint8_t b[N];
};

/** Call @p f with a @p width-byte value type, 1 <= width <= 8. */
template <typename F>
void
byWidth(std::uint32_t width, F &&f)
{
    switch (width) {
      case 1: f(Bytes<1>{}); break;
      case 2: f(Bytes<2>{}); break;
      case 3: f(Bytes<3>{}); break;
      case 4: f(Bytes<4>{}); break;
      case 5: f(Bytes<5>{}); break;
      case 6: f(Bytes<6>{}); break;
      case 7: f(Bytes<7>{}); break;
      default: f(Bytes<8>{}); break;
    }
}

/** @p value's low bytes as a T. */
template <typename T>
T
fill(std::uint64_t value)
{
    T t;
    std::memcpy(&t, &value, sizeof(T));
    return t;
}

/** True when [from, to) of @p mem reads zero. */
bool
zeroBetween(const LinearMemory &mem, std::uint64_t from, std::uint64_t to)
{
    static const std::vector<std::uint8_t> zeros(kOffsetRange, 0);
    return std::memcmp(mem.data() + from, zeros.data(), to - from) == 0;
}

class LifecycleReuse : public ::testing::TestWithParam<BackendKind>
{
  protected:
    std::unique_ptr<Sandbox>
    create(std::uint64_t pages)
    {
        auto s = std::make_unique<Sandbox>(mmu, ctx, GetParam(),
                                           SandboxOptions{pages, kMaxPages});
        if (!s->valid())
            s.reset();
        return s;
    }

    /** Run step @p step on @p s; a trap ends only that step. */
    void
    apply(Sandbox &s, const LifecycleStep &step)
    {
        switch (step.op) {
          case LifecycleOp::Store:
            byWidth(step.width, [&](auto tag) {
                using T = decltype(tag);
                s.invoke([&](Sandbox &sb) {
                    sb.store<T>(step.offset, fill<T>(step.value));
                });
            });
            break;
          case LifecycleOp::StoreN:
            byWidth(step.width, [&](auto tag) {
                using T = decltype(tag);
                const std::vector<T> src(step.count, fill<T>(step.value));
                s.invoke([&](Sandbox &sb) {
                    sb.storeN(step.offset, src.data(), src.size());
                });
            });
            break;
          case LifecycleOp::WriteBytes: {
            // Host-side staging: the host keeps it in bounds.
            LinearMemory &mem = s.memory();
            const std::vector<std::uint8_t> src(
                step.count, static_cast<std::uint8_t>(step.value | 1));
            mem.writeBytes(step.offset % (mem.size() - src.size() + 1),
                           src.data(), src.size());
            break;
          }
          default: {
            const std::uint64_t before = s.memory().size();
            if (s.memoryGrow(step.count) >= 0) {
                ++grows;
                EXPECT_TRUE(zeroBetween(s.memory(), before,
                                        s.memory().size()))
                    << "grown pages hold bytes";
            }
            break;
          }
        }
    }

    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
    std::size_t grows = 0;
};

TEST_P(LifecycleReuse, DestroyedTenantsBytesNeverShowThrough)
{
    constexpr std::uint64_t kSteps = 4096;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::unique_ptr<Sandbox> s = create(2);
        ASSERT_TRUE(s);
        std::size_t recreates = 0, reused = 0;
        for (std::uint64_t i = 0; i < kSteps; ++i) {
            const LifecycleStep step = lifecycleStep(seed, i);
            if (step.op != LifecycleOp::Recreate) {
                apply(*s, step);
                continue;
            }
            const std::uint8_t *given = std::as_const(*s).memory().data();
            s.reset();
            s = create(step.count);
            ASSERT_TRUE(s);
            const LinearMemory &mem = std::as_const(*s).memory();
            ++recreates;
            reused += mem.data() == given;
            ASSERT_TRUE(zeroBetween(mem, 0, mem.size()))
                << "step " << i << ": a new memory holds bytes";
        }
        // The sizes are drawn so the spare list hits often; a stream
        // that never reuses a store would check nothing.
        EXPECT_EQ(recreates, kSteps / 64);
        EXPECT_GE(reused, recreates / 4);
    }
    EXPECT_GT(grows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, LifecycleReuse,
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

} // namespace
