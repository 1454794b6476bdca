/**
 * @file
 * Differential fuzz of the hardware-faithful hmov check against the
 * naive full-width reference (§4.2).
 *
 * The paper's soundness argument for the single-32-bit-comparator
 * design is that, on *well-formed* regions (large: 64 KiB grain, 48-bit
 * bounds; small: byte grain, never spanning a 4 GiB boundary), the
 * cheap check decides exactly like two 64-bit comparators would. The
 * deterministic fuzzer below hammers that claim with randomized
 * regions and operands, biased hard toward the places the two
 * implementations could plausibly split: accesses straddling the
 * region's end, offsets straddling the 32-bit comparator width, and
 * operands that overflow the effective-address computation.
 */

#include <gtest/gtest.h>

#include "core/checker.h"
#include "splitmix.h"

namespace
{

using namespace hfi::core;

using hfi::test::nextRandom;

/** A well-formed large region: 64 KiB-aligned base and bound. */
ExplicitDataRegion
randomLargeRegion(std::uint64_t &rng)
{
    ExplicitDataRegion r;
    r.isLargeRegion = true;
    r.baseAddress =
        (nextRandom(rng) % (kLargeRegionMaxBound / kLargeRegionGrain)) *
        kLargeRegionGrain;
    // Bias toward smallish regions so the end is actually reachable
    // with plausible offsets; sometimes go huge.
    const std::uint64_t grains =
        (nextRandom(rng) % 8 == 0)
            ? nextRandom(rng) % (kLargeRegionMaxBound / kLargeRegionGrain)
            : nextRandom(rng) % 1024;
    r.bound = grains * kLargeRegionGrain;
    r.permRead = nextRandom(rng) % 4 != 0;
    r.permWrite = nextRandom(rng) % 4 != 0;
    return r;
}

/** A well-formed small region: inside one 4 GiB window (or end-aligned). */
ExplicitDataRegion
randomSmallRegion(std::uint64_t &rng)
{
    ExplicitDataRegion r;
    r.isLargeRegion = false;
    const std::uint64_t bound =
        (nextRandom(rng) % 8 == 0) ? nextRandom(rng) % kSmallRegionMaxBound
                                   : nextRandom(rng) % 65536;
    r.bound = bound;
    const std::uint64_t high = nextRandom(rng) << 32;
    if (bound != 0 && nextRandom(rng) % 4 == 0) {
        // End exactly on a 4 GiB boundary — allowed, and the case where
        // the comparator must keep its carry bit to admit the top bytes.
        r.baseAddress = high + (kSmallRegionMaxBound - bound);
    } else {
        const std::uint64_t room = kSmallRegionMaxBound - bound;
        r.baseAddress = high + (room ? nextRandom(rng) % room : 0);
    }
    r.permRead = nextRandom(rng) % 4 != 0;
    r.permWrite = nextRandom(rng) % 4 != 0;
    return r;
}

constexpr std::uint32_t kWidths[] = {1, 2, 4, 8, 16, 32, 64};
constexpr std::uint8_t kScales[] = {1, 2, 4, 8};

/**
 * Operands biased toward the discriminating neighborhoods of @p region:
 * the region end (straddle), offset 0, the 32-bit comparator width, and
 * overflowing / negative inputs.
 */
HmovOperands
randomOperands(std::uint64_t &rng, const ExplicitDataRegion &region)
{
    HmovOperands ops;
    ops.scale = kScales[nextRandom(rng) % 4];
    ops.width = kWidths[nextRandom(rng) % 7];
    switch (nextRandom(rng) % 8) {
    case 0: // uniform small offset
        ops.index = static_cast<std::int64_t>(nextRandom(rng) % 4096);
        ops.displacement = static_cast<std::int64_t>(nextRandom(rng) % 4096);
        break;
    case 1: { // boundary straddle: land the access on the region's end
        const std::uint64_t target =
            region.bound > ops.width
                ? region.bound - ops.width + (nextRandom(rng) % 5) - 2
                : nextRandom(rng) % 8;
        ops.index =
            static_cast<std::int64_t>(target / ops.scale);
        ops.displacement =
            static_cast<std::int64_t>(target % ops.scale);
        break;
    }
    case 2: // negative operands must trap identically
        ops.index = -static_cast<std::int64_t>(1 + nextRandom(rng) % 1024);
        ops.displacement = static_cast<std::int64_t>(nextRandom(rng) % 4096);
        break;
    case 3:
        ops.index = static_cast<std::int64_t>(nextRandom(rng) % 4096);
        ops.displacement =
            -static_cast<std::int64_t>(1 + nextRandom(rng) % 1024);
        break;
    case 4: // scale / add overflow of the offset computation
        ops.index = static_cast<std::int64_t>(nextRandom(rng) >> 1);
        ops.displacement = static_cast<std::int64_t>(nextRandom(rng) >> 1);
        break;
    case 5: // offsets around the 32-bit comparator width
        ops.index = static_cast<std::int64_t>(
            (kSmallRegionMaxBound >> (nextRandom(rng) % 2)) / ops.scale +
            (nextRandom(rng) % 9) - 4);
        ops.displacement = static_cast<std::int64_t>(nextRandom(rng) % 4);
        break;
    case 6: // inside the region, anywhere
        ops.index = static_cast<std::int64_t>(
            region.bound ? nextRandom(rng) % region.bound : 0);
        ops.displacement = 0;
        ops.scale = 1;
        break;
    default: // wild 48-bit offsets (large-region scale)
        ops.index =
            static_cast<std::int64_t>(nextRandom(rng) & 0xffffffffffffULL);
        ops.displacement = static_cast<std::int64_t>(nextRandom(rng) % 65536);
        break;
    }
    return ops;
}

TEST(CheckerFuzz, HardwareCheckMatchesNaiveOnWellFormedRegions)
{
    std::uint64_t rng = 0x48f1'5eed'2026'0805ULL;
    HfiRegisterFile bank{};
    bank.enabled = true;

    for (int iter = 0; iter < 200'000; ++iter) {
        const bool large = nextRandom(rng) % 2 == 0;
        const ExplicitDataRegion region =
            large ? randomLargeRegion(rng) : randomSmallRegion(rng);
        ASSERT_TRUE(region.wellFormed());
        const unsigned slot = static_cast<unsigned>(nextRandom(rng) % 4);
        bank.setRegion(kFirstExplicitRegion + slot, region);

        // Mostly hit the configured slot; sometimes a cleared one or an
        // out-of-range index, which must trap identically too.
        unsigned probe = slot;
        if (nextRandom(rng) % 16 == 0)
            probe = static_cast<unsigned>(nextRandom(rng) % 6);
        const HmovOperands ops = randomOperands(rng, region);
        const bool write = nextRandom(rng) % 2 == 0;

        const HmovResult hw =
            AccessChecker::checkHmov(bank, probe, ops, write);
        const HmovResult naive =
            AccessChecker::checkHmovNaive(bank, probe, ops, write);

        ASSERT_EQ(hw.ok, naive.ok)
            << "iter " << iter << (large ? " large" : " small")
            << " base=0x" << std::hex << region.baseAddress << " bound=0x"
            << region.bound << " index=0x" << ops.index << " scale="
            << std::dec << int(ops.scale) << " disp=0x" << std::hex
            << ops.displacement << " width=" << std::dec << ops.width;
        ASSERT_EQ(static_cast<int>(hw.reason),
                  static_cast<int>(naive.reason))
            << "iter " << iter;
        if (hw.ok) {
            ASSERT_EQ(hw.address, naive.address) << "iter " << iter;
        }

        bank.setRegion(kFirstExplicitRegion + slot, EmptyRegion{});
    }
}

TEST(CheckerFuzz, ExhaustiveAroundSmallRegionEnd)
{
    // Every (offset, width) in a window around the end of a small
    // region that terminates exactly on a 4 GiB boundary — the carry
    // case the 32-bit comparator is easiest to get wrong.
    HfiRegisterFile bank{};
    bank.enabled = true;
    ExplicitDataRegion region;
    region.isLargeRegion = false;
    region.bound = 256;
    region.baseAddress =
        (7ULL << 32) + (kSmallRegionMaxBound - region.bound);
    region.permRead = region.permWrite = true;
    ASSERT_TRUE(region.wellFormed());
    bank.setRegion(kFirstExplicitRegion, region);

    for (std::uint64_t offset = 0; offset < 2 * region.bound; ++offset) {
        for (std::uint32_t width : kWidths) {
            HmovOperands ops;
            ops.index = static_cast<std::int64_t>(offset);
            ops.scale = 1;
            ops.displacement = 0;
            ops.width = width;
            const auto hw = AccessChecker::checkHmov(bank, 0, ops, false);
            const auto naive =
                AccessChecker::checkHmovNaive(bank, 0, ops, false);
            ASSERT_EQ(hw.ok, naive.ok)
                << "offset " << offset << " width " << width;
            ASSERT_EQ(static_cast<int>(hw.reason),
                      static_cast<int>(naive.reason))
                << "offset " << offset << " width " << width;
            if (hw.ok) {
                ASSERT_EQ(hw.address, naive.address);
            }
        }
    }
}

} // namespace
