/**
 * @file
 * Tests for the AccessChecker: first-match implicit checks (§3.2), the
 * hmov operand rules (§4.2), and — the load-bearing property test — the
 * equivalence of the hardware-faithful single-32-bit-comparator bounds
 * check with the naive full-width reference on every well-formed
 * region, which is the paper's soundness argument for the cheap
 * hardware.
 */

#include <gtest/gtest.h>

#include "core/checker.h"

namespace
{

using namespace hfi::core;
using hfi::vm::VirtualClock;

class CheckerTest : public ::testing::Test
{
  protected:
    void
    setData(unsigned slot, std::uint64_t base, std::uint64_t mask,
            bool rd, bool wr)
    {
        ImplicitDataRegion r;
        r.basePrefix = base;
        r.lsbMask = mask;
        r.permRead = rd;
        r.permWrite = wr;
        bank.setRegion(slot, r);
    }

    void
    setCode(unsigned slot, std::uint64_t base, std::uint64_t mask,
            bool exec = true)
    {
        ImplicitCodeRegion r;
        r.basePrefix = base;
        r.lsbMask = mask;
        r.permExec = exec;
        bank.setRegion(slot, r);
    }

    void
    setExplicit(unsigned index, std::uint64_t base, std::uint64_t bound,
                bool large, bool rd = true, bool wr = true)
    {
        ExplicitDataRegion r;
        r.baseAddress = base;
        r.bound = bound;
        r.permRead = rd;
        r.permWrite = wr;
        r.isLargeRegion = large;
        bank.setRegion(kFirstExplicitRegion + index, r);
    }

    HfiRegisterFile bank{};
};

TEST_F(CheckerTest, DisabledMeansEverythingPasses)
{
    bank.enabled = false;
    EXPECT_TRUE(AccessChecker::checkData(bank, 0xdead, 8, true).ok);
    EXPECT_TRUE(AccessChecker::checkFetch(bank, 0xdead).ok);
}

TEST_F(CheckerTest, NoRegionsMeansNoAccess)
{
    // §3.2: "By default, a sandbox has no access to memory".
    bank.enabled = true;
    const auto res = AccessChecker::checkData(bank, 0x1000, 8, false);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.reason, ExitReason::DataBoundsViolation);
    EXPECT_EQ(AccessChecker::checkFetch(bank, 0x1000).reason,
              ExitReason::CodeBoundsViolation);
}

TEST_F(CheckerTest, FirstMatchDecidesPermissions)
{
    // Region 2 (read-only) nested inside region 3 (read-write): the
    // first match decides, so writes inside region 2's range trap even
    // though region 3 would allow them — the §5.3 protection pattern.
    bank.enabled = true;
    setData(2, 0x10000, 0xfff, true, false);
    setData(3, 0x10000, 0xffff, true, true);

    EXPECT_TRUE(AccessChecker::checkData(bank, 0x10010, 8, false).ok);
    const auto wr = AccessChecker::checkData(bank, 0x10010, 8, true);
    EXPECT_FALSE(wr.ok);
    EXPECT_EQ(wr.reason, ExitReason::PermissionViolation);
    // Outside region 2 but inside region 3: writes allowed.
    EXPECT_TRUE(AccessChecker::checkData(bank, 0x11000, 8, true).ok);
}

TEST_F(CheckerTest, MatchedRegionIndexReported)
{
    bank.enabled = true;
    setData(4, 0x20000, 0xfff, true, true);
    const auto res = AccessChecker::checkData(bank, 0x20100, 4, false);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.matchedRegion, 4u);
}

TEST_F(CheckerTest, StraddlingAccessTraps)
{
    bank.enabled = true;
    setData(2, 0x10000, 0xfff, true, true);
    // 8-byte access whose last byte leaves the 4 KiB region.
    EXPECT_TRUE(AccessChecker::checkData(bank, 0x10ff8, 8, false).ok);
    EXPECT_FALSE(AccessChecker::checkData(bank, 0x10ffc, 8, false).ok);
}

TEST_F(CheckerTest, CodeRegionsOnlyGateFetch)
{
    bank.enabled = true;
    setCode(0, 0x400000, 0xffff);
    EXPECT_TRUE(AccessChecker::checkFetch(bank, 0x400123).ok);
    EXPECT_FALSE(AccessChecker::checkFetch(bank, 0x500000).ok);
    // Data accesses do not consult code regions.
    EXPECT_FALSE(AccessChecker::checkData(bank, 0x400123, 8, false).ok);
}

TEST_F(CheckerTest, NonExecutableCodeRegionTraps)
{
    bank.enabled = true;
    setCode(0, 0x400000, 0xffff, /*exec*/ false);
    const auto res = AccessChecker::checkFetch(bank, 0x400000);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.reason, ExitReason::PermissionViolation);
}

TEST_F(CheckerTest, HmovBasicInBounds)
{
    bank.enabled = true;
    setExplicit(0, 0x100000, 1 << 16, /*large*/ true);
    HmovOperands ops;
    ops.index = 0x100;
    ops.width = 8;
    const auto res = AccessChecker::checkHmov(bank, 0, ops, false);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.address, 0x100100u);
}

TEST_F(CheckerTest, HmovOutOfBoundsTraps)
{
    bank.enabled = true;
    setExplicit(0, 0x100000, 1 << 16, true);
    HmovOperands ops;
    ops.index = 1 << 16;
    ops.width = 1;
    const auto res = AccessChecker::checkHmov(bank, 0, ops, false);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.reason, ExitReason::HmovBoundsViolation);
    // Last byte straddling the bound also traps.
    ops.index = (1 << 16) - 4;
    ops.width = 8;
    EXPECT_FALSE(AccessChecker::checkHmov(bank, 0, ops, false).ok);
}

TEST_F(CheckerTest, HmovNegativeOperandsTrap)
{
    // §3.2: "hmov traps if a negative value is used for the remaining
    // operands".
    bank.enabled = true;
    setExplicit(0, 0x100000, 1 << 16, true);
    HmovOperands ops;
    ops.index = -1;
    EXPECT_EQ(AccessChecker::checkHmov(bank, 0, ops, false).reason,
              ExitReason::HmovNegativeOperand);
    ops.index = 0;
    ops.displacement = -8;
    EXPECT_EQ(AccessChecker::checkHmov(bank, 0, ops, false).reason,
              ExitReason::HmovNegativeOperand);
}

TEST_F(CheckerTest, HmovOverflowTraps)
{
    bank.enabled = true;
    setExplicit(0, 0x100000, 1 << 16, true);
    HmovOperands ops;
    ops.index = INT64_MAX;
    ops.scale = 8;
    EXPECT_EQ(AccessChecker::checkHmov(bank, 0, ops, false).reason,
              ExitReason::HmovOverflow);
}

TEST_F(CheckerTest, HmovScaleAndDisplacement)
{
    bank.enabled = true;
    setExplicit(0, 0x100000, 1 << 16, true);
    HmovOperands ops;
    ops.index = 0x10;
    ops.scale = 8;
    ops.displacement = 0x20;
    ops.width = 8;
    const auto res = AccessChecker::checkHmov(bank, 0, ops, false);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.address, 0x100000u + 0x10 * 8 + 0x20);
}

TEST_F(CheckerTest, HmovPermissionChecks)
{
    bank.enabled = true;
    setExplicit(0, 0x100000, 1 << 16, true, /*rd*/ true, /*wr*/ false);
    HmovOperands ops;
    ops.index = 0;
    ops.width = 8;
    EXPECT_TRUE(AccessChecker::checkHmov(bank, 0, ops, false).ok);
    EXPECT_EQ(AccessChecker::checkHmov(bank, 0, ops, true).reason,
              ExitReason::PermissionViolation);
}

TEST_F(CheckerTest, HmovEmptyOrBadRegionTraps)
{
    bank.enabled = true;
    HmovOperands ops;
    EXPECT_EQ(AccessChecker::checkHmov(bank, 0, ops, false).reason,
              ExitReason::HmovEmptyRegion);
    EXPECT_EQ(AccessChecker::checkHmov(bank, 7, ops, false).reason,
              ExitReason::HmovEmptyRegion);
}

TEST_F(CheckerTest, SmallRegionEndingOn4GiBBoundary)
{
    // A small region whose limit is exactly a 4 GiB multiple: the
    // 32-bit comparator must still admit the top bytes (carry case).
    bank.enabled = true;
    const std::uint64_t base = (1ULL << 32) - 4096;
    setExplicit(0, base, 4096, /*large*/ false);
    HmovOperands ops;
    ops.index = 4095;
    ops.width = 1;
    EXPECT_TRUE(AccessChecker::checkHmov(bank, 0, ops, false).ok);
    ops.index = 4096;
    EXPECT_FALSE(AccessChecker::checkHmov(bank, 0, ops, false).ok);
}

/**
 * The central property: the hardware-faithful check (one 32-bit compare
 * plus sign/overflow bits, §4.2) agrees with the naive full-64-bit
 * reference on every well-formed region and operand combination.
 */
struct HmovCase
{
    std::uint64_t base;
    std::uint64_t bound;
    bool large;
};

/** Names each case by its fields, not by its (padded) bytes. */
void
PrintTo(const HmovCase &c, std::ostream *os)
{
    *os << "base=0x" << std::hex << c.base << " bound=0x" << c.bound
        << std::dec << (c.large ? " large" : " small");
}

class HmovEquivalence : public ::testing::TestWithParam<HmovCase>
{
};

TEST_P(HmovEquivalence, HardwareMatchesNaive)
{
    const HmovCase param = GetParam();
    HfiRegisterFile bank;
    bank.enabled = true;
    ExplicitDataRegion r;
    r.baseAddress = param.base;
    r.bound = param.bound;
    r.permRead = true;
    r.permWrite = true;
    r.isLargeRegion = param.large;
    ASSERT_TRUE(r.wellFormed());
    bank.setRegion(kFirstExplicitRegion, r);

    // Sweep offsets around the region edges and a few interior points,
    // crossed with widths and scales.
    const std::int64_t bound = static_cast<std::int64_t>(param.bound);
    const std::int64_t probes[] = {0,
                                   1,
                                   7,
                                   bound / 2,
                                   bound - 65,
                                   bound - 64,
                                   bound - 8,
                                   bound - 1,
                                   bound,
                                   bound + 1,
                                   bound + 63,
                                   bound * 2};
    const unsigned widths[] = {1, 2, 4, 8, 16, 64};
    const unsigned scales[] = {1, 2, 8};

    for (std::int64_t probe : probes) {
        if (probe < 0)
            continue;
        for (unsigned width : widths) {
            for (unsigned scale : scales) {
                if (probe % scale != 0)
                    continue;
                HmovOperands ops;
                ops.index = probe / scale;
                ops.scale = static_cast<std::uint8_t>(scale);
                ops.displacement = 0;
                ops.width = width;
                const auto hw =
                    AccessChecker::checkHmov(bank, 0, ops, false);
                const auto naive =
                    AccessChecker::checkHmovNaive(bank, 0, ops, false);
                EXPECT_EQ(hw.ok, naive.ok)
                    << "base=0x" << std::hex << param.base << " bound=0x"
                    << param.bound << " probe=0x" << probe << " width="
                    << std::dec << width << " scale=" << scale;
                if (hw.ok && naive.ok) {
                    EXPECT_EQ(hw.address, naive.address);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Regions, HmovEquivalence,
    ::testing::Values(
        // Large regions: 64 KiB grain, up to huge bounds.
        HmovCase{0x100000, 1 << 16, true},
        HmovCase{0x7fff0000, 4ULL << 30, true},
        HmovCase{1ULL << 40, 1ULL << 32, true},
        HmovCase{0, 1ULL << 48, true},
        HmovCase{0xffff0000, 1 << 16, true},
        // Small regions: byte grain, non-spanning.
        HmovCase{0x12345, 1234, false},
        HmovCase{0x100000, (1ULL << 32) - 0x100000, false},
        HmovCase{(1ULL << 32) - 8192, 8192, false},
        HmovCase{(5ULL << 32) + 123, 1 << 20, false},
        HmovCase{0x7fff8000, 0x800, false}));

/** Displacement-based sweep of the same property. */
TEST_F(CheckerTest, HmovDisplacementEquivalenceSweep)
{
    bank.enabled = true;
    setExplicit(2, 0xabcd0000, 1 << 16, true);
    for (std::int64_t disp = 0; disp < (1 << 17); disp += 4093) {
        for (unsigned width : {1u, 4u, 8u}) {
            HmovOperands ops;
            ops.index = 5;
            ops.scale = 4;
            ops.displacement = disp;
            ops.width = width;
            const auto hw = AccessChecker::checkHmov(bank, 2, ops, true);
            const auto naive =
                AccessChecker::checkHmovNaive(bank, 2, ops, true);
            ASSERT_EQ(hw.ok, naive.ok) << "disp=" << disp;
        }
    }
}

TEST_F(CheckerTest, ContextConvenienceOverloads)
{
    VirtualClock clock;
    HfiContext ctx(clock);
    ImplicitDataRegion r;
    r.basePrefix = 0x1000;
    r.lsbMask = 0xfff;
    r.permRead = true;
    ctx.setRegion(2, Region{r});
    ctx.enter(SandboxConfig{});
    EXPECT_TRUE(AccessChecker::checkData(ctx, 0x1800, 4, false).ok);
    EXPECT_FALSE(AccessChecker::checkData(ctx, 0x2000, 4, false).ok);
}

} // namespace
