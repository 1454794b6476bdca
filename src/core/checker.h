/**
 * @file
 * The HFI access checker: bit-level models of the bounds checks that the
 * hardware performs in parallel with the dtb lookup (data), the decode
 * stage (code), and the AGU (hmov) — §4.1 and §4.2 of the paper.
 *
 * Two interchangeable implementations of the explicit-region check are
 * provided:
 *
 *  - the *hardware-faithful* check, which exploits the large/small region
 *    constraints so that a single 32-bit comparator plus two sign-bit
 *    checks and an overflow check suffice (§4.2); and
 *  - a *naive* reference check using full 64-bit arithmetic.
 *
 * Tests assert the two agree on every well-formed region (the paper's
 * argument for why the cheap check is sound), and the ablation benchmark
 * contrasts their modeled hardware cost.
 */

#ifndef HFI_CORE_CHECKER_H
#define HFI_CORE_CHECKER_H

#include <cstdint>

#include "core/context.h"
#include "core/region.h"

namespace hfi::core
{

/**
 * Human-readable name for an ExitReason — the one spelling shared by
 * worker stats, the serve_faults bench, trace labels, and tests.
 */
const char *toString(ExitReason reason);

/** Outcome of a checked memory operation. */
struct CheckResult
{
    bool ok = false;
    /** Fault classification when !ok. */
    ExitReason reason = ExitReason::None;
    /** Index of the first-matching region register, or kNumRegions. */
    unsigned matchedRegion = kNumRegions;

    static CheckResult
    pass(unsigned region)
    {
        return {true, ExitReason::None, region};
    }

    static CheckResult
    fail(ExitReason reason)
    {
        return {false, reason, kNumRegions};
    }
};

/** Outcome of an hmov address computation + check. */
struct HmovResult
{
    bool ok = false;
    ExitReason reason = ExitReason::None;
    /** Absolute effective address (region base + offset) when ok. */
    VAddr address = 0;
};

/** The x86 addressing-mode operands an hmov consumes (§3.2, §4.2). */
struct HmovOperands
{
    /**
     * Index register value, sign-interpreted: hmov traps when negative.
     * (The base operand of the original mov is ignored and replaced by
     * the region base.)
     */
    std::int64_t index = 0;
    /** Scale factor applied to the index: 1, 2, 4, or 8. */
    std::uint8_t scale = 1;
    /** Displacement immediate, sign-interpreted; traps when negative. */
    std::int64_t displacement = 0;
    /** Access width in bytes (1, 2, 4, 8, 16, 32, or 64). */
    std::uint32_t width = 8;
};

/** Implementation helpers shared by the hmov checks. */
namespace detail
{

/**
 * Shared operand validation: the sign-bit and overflow checks of §4.2
 * that make the positive-offset guarantee hold. On success *offset_out
 * holds index*scale + displacement.
 */
inline bool
computeOffset(const HmovOperands &ops, std::uint64_t *offset_out,
              ExitReason *reason_out)
{
    if (ops.index < 0 || ops.displacement < 0) {
        *reason_out = ExitReason::HmovNegativeOperand;
        return false;
    }
    const auto index = static_cast<std::uint64_t>(ops.index);
    const auto disp = static_cast<std::uint64_t>(ops.displacement);
    const std::uint64_t scaled = index * static_cast<std::uint64_t>(ops.scale);
    if (ops.scale != 1 && scaled / ops.scale != index) {
        *reason_out = ExitReason::HmovOverflow;
        return false;
    }
    const std::uint64_t offset = scaled + disp;
    if (offset < scaled) {
        *reason_out = ExitReason::HmovOverflow;
        return false;
    }
    *offset_out = offset;
    return true;
}

/**
 * Fetch the flattened slot selected by hmov<n>, or fail. A cleared
 * register, an index outside 0..3, and a region without the needed
 * permission are all traps. Reads the precomputed discriminant, not the
 * variant.
 */
inline const FlatRegionSlot *
selectRegion(const HfiRegisterFile &bank, unsigned explicit_index,
             ExitReason *reason_out)
{
    if (explicit_index >= kNumExplicitRegions) {
        *reason_out = ExitReason::HmovEmptyRegion;
        return nullptr;
    }
    const FlatRegionSlot &slot =
        bank.flat(kFirstExplicitRegion + explicit_index);
    if (slot.kind != RegionKind::ExplicitData) {
        *reason_out = ExitReason::HmovEmptyRegion;
        return nullptr;
    }
    return &slot;
}

} // namespace detail

/**
 * Stateless checking logic over a context's region registers.
 *
 * The checker never mutates the HfiContext; callers (the pipeline model,
 * the SFI backends) decide what to do with a failed check — normally
 * HfiContext::onFault plus a modeled SIGSEGV.
 */
class AccessChecker
{
  public:
    /**
     * Check a load (@p write == false) or store against the implicit
     * data regions, first-match semantics (§3.2). The whole access
     * [addr, addr+width) must lie inside the matched region: hardware
     * achieves this because a power-of-two region can only be escaped by
     * an access that also changes the checked prefix.
     *
     * Reads only the flattened slots (discriminant + packed fields) the
     * register file maintains, and is inline: one fetch-and-compare per
     * scanned slot, the software shape of the parallel comparators the
     * hardware runs next to the dtb (§4.1). First-match order over the
     * slots is identical to the variant-probing formulation.
     */
    static CheckResult
    checkData(const HfiRegisterFile &bank, VAddr addr, std::uint32_t width,
              bool write)
    {
        if (!bank.enabled)
            return CheckResult::pass(kNumRegions);

        const VAddr last = addr + width - 1;
        for (unsigned n = kFirstImplicitDataRegion; n < kFirstExplicitRegion;
             ++n) {
            const FlatRegionSlot &s = bank.flat(n);
            if (s.kind != RegionKind::ImplicitData)
                continue;
            if ((addr & s.prefixMask) != s.base)
                continue;
            // First match decides (§3.2). The access must not straddle
            // the region's (power-of-two) end: the last byte must share
            // the checked prefix, which hardware verifies with the same
            // AND+cmp.
            if ((last & s.prefixMask) != s.base)
                return CheckResult::fail(ExitReason::DataBoundsViolation);
            if (write ? !s.permWrite : !s.permRead)
                return CheckResult::fail(ExitReason::PermissionViolation);
            return CheckResult::pass(n);
        }
        return CheckResult::fail(ExitReason::DataBoundsViolation);
    }

    /** Check an instruction fetch against the implicit code regions. */
    static CheckResult
    checkFetch(const HfiRegisterFile &bank, VAddr addr)
    {
        if (!bank.enabled)
            return CheckResult::pass(kNumRegions);

        for (unsigned n = kFirstCodeRegion; n < kFirstImplicitDataRegion;
             ++n) {
            const FlatRegionSlot &s = bank.flat(n);
            if (s.kind != RegionKind::Code)
                continue;
            if ((addr & s.prefixMask) != s.base)
                continue;
            if (!s.permExec)
                return CheckResult::fail(ExitReason::PermissionViolation);
            return CheckResult::pass(n);
        }
        return CheckResult::fail(ExitReason::CodeBoundsViolation);
    }

    /**
     * Compute and check the effective address of hmov<n> using the
     * hardware-faithful single-32-bit-comparator scheme (§4.2).
     *
     * @param explicit_index 0..3, selecting hmov0..hmov3 (register
     *        kFirstExplicitRegion + explicit_index).
     */
    static HmovResult
    checkHmov(const HfiRegisterFile &bank, unsigned explicit_index,
              const HmovOperands &ops, bool write)
    {
        HmovResult res;
        const FlatRegionSlot *r =
            detail::selectRegion(bank, explicit_index, &res.reason);
        if (!r)
            return res;
        if (write ? !r->permWrite : !r->permRead) {
            res.reason = ExitReason::PermissionViolation;
            return res;
        }

        std::uint64_t offset = 0;
        if (!detail::computeOffset(ops, &offset, &res.reason))
            return res;

        // The AGU adds the (precomputed) region base; a carry out of
        // bit 63 is the effective-address overflow the paper traps on.
        const VAddr ea = r->base + offset;
        if (ea < r->base) {
            res.reason = ExitReason::HmovOverflow;
            return res;
        }
        const VAddr last = ea + ops.width - 1;
        if (last < ea) {
            res.reason = ExitReason::HmovOverflow;
            return res;
        }

        if (r->isLarge) {
            // Large regions: base and bound are 64 KiB aligned,
            // addresses are 48 bits, so "last < base + bound" reduces
            // to one 32-bit compare of bits [47:16] — the limit's low
            // 16 bits are zero (§4.2).
            const std::uint64_t limit = r->base + r->bound;
            if ((last >> 16) >= (limit >> 16)) {
                res.reason = ExitReason::HmovBoundsViolation;
                return res;
            }
        } else {
            // Small regions never span a 4 GiB boundary, so only the
            // bottom 32 bits of the effective address need checking;
            // the comparator keeps the carry bit so a region ending
            // exactly on a boundary (limit's low 32 bits = 0) still
            // admits its top bytes.
            const std::uint64_t base_low = r->base & 0xffffffffULL;
            const std::uint64_t limit33 = base_low + r->bound;
            const std::uint64_t last33 = base_low + offset + ops.width - 1;
            if (last33 >= limit33) {
                res.reason = ExitReason::HmovBoundsViolation;
                return res;
            }
        }

        res.ok = true;
        res.reason = ExitReason::None;
        res.address = ea;
        return res;
    }

    /**
     * Reference implementation of the explicit-region check using full
     * 64-bit comparisons. Used by property tests to validate the
     * hardware-faithful path and by the ablation bench as the
     * "two 64-bit comparators" design point.
     */
    static HmovResult checkHmovNaive(const HfiRegisterFile &bank,
                                     unsigned explicit_index,
                                     const HmovOperands &ops, bool write);

    /** Convenience overloads over a live context's active bank. @{ */
    static CheckResult checkData(const HfiContext &ctx, VAddr addr,
                                 std::uint32_t width, bool write);
    static HmovResult checkHmov(const HfiContext &ctx,
                                unsigned explicit_index,
                                const HmovOperands &ops, bool write);
    /** @} */
};

} // namespace hfi::core

#endif // HFI_CORE_CHECKER_H
