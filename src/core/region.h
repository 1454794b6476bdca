/**
 * @file
 * HFI region types (§3.2 and appendix A.1 of the paper).
 *
 * Two families of regions control all memory access while HFI mode is
 * enabled:
 *
 *  - Implicit regions check *every* load/store (data regions) or
 *    instruction fetch (code regions) by prefix matching: the lsb_mask
 *    drops the least significant bits of the address and the remainder
 *    is compared with base_prefix. Power-of-two size/alignment in
 *    exchange for a check that is just an AND plus an equality compare.
 *
 *  - Explicit regions are (base, bound) handles accessed via the
 *    hmov0..3 instructions. Large regions address up to 256 TiB at
 *    64 KiB granularity; small regions address up to 4 GiB at byte
 *    granularity but must not span a 4 GiB boundary. These constraints
 *    let the hardware check bounds with a single 32-bit comparator
 *    (§4.2).
 */

#ifndef HFI_CORE_REGION_H
#define HFI_CORE_REGION_H

#include <cstdint>
#include <variant>

#include "vm/address_space.h"

namespace hfi::core
{

using vm::VAddr;

/** 64 KiB: the alignment/granularity of large explicit regions. */
constexpr std::uint64_t kLargeRegionGrain = 1ULL << 16;

/** Large explicit regions can address up to 2^48 bytes. */
constexpr std::uint64_t kLargeRegionMaxBound = 1ULL << 48;

/** Small explicit regions can address up to 4 GiB. */
constexpr std::uint64_t kSmallRegionMaxBound = 1ULL << 32;

/** Number of implicit data regions per sandbox. */
constexpr unsigned kNumImplicitDataRegions = 4;

/** Number of implicit code regions per sandbox. */
constexpr unsigned kNumImplicitCodeRegions = 2;

/** Number of explicit data regions per sandbox (hmov0..hmov3). */
constexpr unsigned kNumExplicitRegions = 4;

/** Total region registers (appendix: 0-1 code, 2-5 implicit, 6-9 explicit). */
constexpr unsigned kNumRegions =
    kNumImplicitCodeRegions + kNumImplicitDataRegions + kNumExplicitRegions;

/** First region number of each class. */
constexpr unsigned kFirstCodeRegion = 0;
constexpr unsigned kFirstImplicitDataRegion = kNumImplicitCodeRegions;
constexpr unsigned kFirstExplicitRegion =
    kNumImplicitCodeRegions + kNumImplicitDataRegions;

/**
 * An implicit code region (prefix checked against the program counter).
 */
struct ImplicitCodeRegion
{
    VAddr basePrefix = 0;
    std::uint64_t lsbMask = 0;
    bool permExec = false;

    /** True if @p addr falls inside this region. */
    bool
    contains(VAddr addr) const
    {
        return (addr & ~lsbMask) == basePrefix;
    }

    /**
     * True if the parameters obey the power-of-two constraint: lsbMask
     * must be of the form 2^k - 1 and basePrefix must have no bits inside
     * the mask.
     */
    bool
    wellFormed() const
    {
        return ((lsbMask + 1) & lsbMask) == 0 && (basePrefix & lsbMask) == 0;
    }

    bool operator==(const ImplicitCodeRegion &) const = default;
};

/**
 * An implicit data region (prefix checked against every load/store that
 * does not go through an explicit region).
 */
struct ImplicitDataRegion
{
    VAddr basePrefix = 0;
    std::uint64_t lsbMask = 0;
    bool permRead = false;
    bool permWrite = false;

    bool
    contains(VAddr addr) const
    {
        return (addr & ~lsbMask) == basePrefix;
    }

    bool
    wellFormed() const
    {
        return ((lsbMask + 1) & lsbMask) == 0 && (basePrefix & lsbMask) == 0;
    }

    bool operator==(const ImplicitDataRegion &) const = default;
};

/**
 * An explicit data region: a (base, bound) handle addressed relatively
 * through hmov.
 */
struct ExplicitDataRegion
{
    VAddr baseAddress = 0;
    std::uint64_t bound = 0; ///< size of the region in bytes
    bool permRead = false;
    bool permWrite = false;
    bool isLargeRegion = false;

    /**
     * Validity per §3.2:
     *  - large: base and bound are multiples of 64 KiB, bound ≤ 2^48;
     *  - small: bound ≤ 4 GiB and [base, base+bound) does not span an
     *    address that is a multiple of 4 GiB (ending exactly on one is
     *    allowed — the region then does not *span* it).
     */
    bool
    wellFormed() const
    {
        if (isLargeRegion) {
            return baseAddress % kLargeRegionGrain == 0 &&
                   bound % kLargeRegionGrain == 0 &&
                   bound <= kLargeRegionMaxBound;
        }
        if (bound > kSmallRegionMaxBound)
            return false;
        if (bound == 0)
            return true;
        const VAddr last = baseAddress + bound - 1;
        if (last < baseAddress)
            return false; // wraps the address space
        return (baseAddress >> 32) == (last >> 32) ||
               (baseAddress + bound) % kSmallRegionMaxBound == 0;
    }

    bool operator==(const ExplicitDataRegion &) const = default;
};

/** A cleared (inaccessible) region register. */
struct EmptyRegion
{
    bool wellFormed() const { return true; }
    bool operator==(const EmptyRegion &) const = default;
};

/** Any region register value. */
using Region = std::variant<EmptyRegion, ImplicitCodeRegion,
                            ImplicitDataRegion, ExplicitDataRegion>;

/**
 * Discriminant of a region value and class of a region register
 * number. Mirrors the Region variant's alternatives one-for-one.
 */
enum class RegionKind : std::uint8_t
{
    Empty = 0,
    Code,
    ImplicitData,
    ExplicitData,
};

/** The kind register number @p n holds (0-1 code, 2-5 implicit, 6-9 explicit). */
constexpr RegionKind
regionKindOf(unsigned n)
{
    if (n < kFirstImplicitDataRegion)
        return RegionKind::Code;
    if (n < kFirstExplicitRegion)
        return RegionKind::ImplicitData;
    return RegionKind::ExplicitData;
}

/**
 * The flattened (hardware-register-shaped) rendering of one region
 * register — the only form a register bank stores. The per-access
 * checks read a discriminant byte plus packed fields instead of probing
 * a std::variant (§4.1's point that the check must be a handful of
 * gates, not a dispatch); the Region value is decoded on read.
 *
 * For implicit regions the prefix compare `(addr & ~lsbMask) ==
 * basePrefix` is precomputed as `(addr & prefixMask) == base`, so the
 * hot path never re-derives the complement.
 */
struct FlatRegionSlot
{
    RegionKind kind = RegionKind::Empty;
    bool permRead = false;
    bool permWrite = false;
    bool permExec = false;
    bool isLarge = false;
    /** Implicit regions: ~lsbMask. Unused for explicit regions. */
    std::uint64_t prefixMask = 0;
    /** Implicit: basePrefix. Explicit: baseAddress. */
    std::uint64_t base = 0;
    /** Explicit regions: bound in bytes. */
    std::uint64_t bound = 0;

    bool operator==(const FlatRegionSlot &) const = default;
};

/** Flatten a region-register value (done once, at register write). */
inline FlatRegionSlot
flattenRegion(const Region &region)
{
    FlatRegionSlot slot;
    if (const auto *c = std::get_if<ImplicitCodeRegion>(&region)) {
        slot.kind = RegionKind::Code;
        slot.permExec = c->permExec;
        slot.prefixMask = ~c->lsbMask;
        slot.base = c->basePrefix;
    } else if (const auto *d = std::get_if<ImplicitDataRegion>(&region)) {
        slot.kind = RegionKind::ImplicitData;
        slot.permRead = d->permRead;
        slot.permWrite = d->permWrite;
        slot.prefixMask = ~d->lsbMask;
        slot.base = d->basePrefix;
    } else if (const auto *e = std::get_if<ExplicitDataRegion>(&region)) {
        slot.kind = RegionKind::ExplicitData;
        slot.permRead = e->permRead;
        slot.permWrite = e->permWrite;
        slot.isLarge = e->isLargeRegion;
        slot.base = e->baseAddress;
        slot.bound = e->bound;
    }
    return slot;
}

/** The region value a slot holds: the exact inverse of flattenRegion. */
inline Region
decodeRegion(const FlatRegionSlot &slot)
{
    switch (slot.kind) {
      case RegionKind::Code:
        return ImplicitCodeRegion{slot.base, ~slot.prefixMask, slot.permExec};
      case RegionKind::ImplicitData:
        return ImplicitDataRegion{slot.base, ~slot.prefixMask, slot.permRead,
                                  slot.permWrite};
      case RegionKind::ExplicitData:
        return ExplicitDataRegion{slot.base, slot.bound, slot.permRead,
                                  slot.permWrite, slot.isLarge};
      case RegionKind::Empty:
        break;
    }
    return EmptyRegion{};
}

/**
 * True when @p region may legally be stored in register number @p n:
 * its kind must match the register's and the value must obey its
 * well-formedness rules. EmptyRegion is storable anywhere (it is what
 * hfi_clear_region writes).
 */
inline bool
regionStorable(unsigned n, const Region &region)
{
    const auto kind = static_cast<RegionKind>(region.index());
    return kind == RegionKind::Empty ||
           (kind == regionKindOf(n) &&
            std::visit([](const auto &r) { return r.wellFormed(); }, region));
}

} // namespace hfi::core

#endif // HFI_CORE_REGION_H
