/**
 * @file
 * The isolation backend: one class for all four ways of enforcing a
 * Wasm linear memory's bounds that the paper contrasts (§2, §5.1-5.2,
 * Fig 3, §6.1):
 *
 *  - guard pages: the memory is placed in an 8 GiB reservation whose
 *    inaccessible tail traps out-of-bounds accesses via the MMU;
 *  - bounds checks: a compare+branch precedes every access;
 *  - address masking: classic Wahbe-style SFI ([78]), which silently
 *    wraps out-of-bounds accesses instead of trapping;
 *  - HFI: an explicit region accessed through hmov, checked in hardware
 *    in parallel with address translation.
 *
 * Where the schemes differ only in data, the BackendKind selects it:
 *
 *  - the address space reserved (footprintBytes): heap + a 4 GiB
 *    PROT_NONE guard, the heap alone (bounds checks, HFI), or the heap
 *    rounded up to a power of two and aligned to itself (mask), so an
 *    AND keeps every address inside it;
 *  - the reservation's protection: PROT_NONE with pages opened as the
 *    memory grows, or read-write for HFI, whose region bound (not page
 *    permissions) does the enforcing;
 *  - one cost row (BackendCosts, paperCosts).
 *
 * Where the mechanism differs, a branch on the kind picks it: growth
 * is mprotect() over the new pages or one hfi_set_region (§6.1's 30x
 * gap); an access is checked by the accessible-size rule (a mask wraps
 * where the others trap) or by AccessChecker::checkHmov; and only HFI
 * programs a region register and runs hfi_enter/hfi_exit around
 * sandboxed execution.
 *
 * checkAccess is the Sandbox's slow path, not its per-access call: the
 * Sandbox accepts in-bounds accesses inline (Backend::accepts, against
 * the memory's size or HFI's live heap register) and calls checkAccess
 * only for the rest, so every trap, every mask wrap and every HFI trap
 * reason comes from there.
 *
 * HFI alone takes extra Wasm memories (addMemory): memories 1..N-1
 * share explicit registers 1..3 through an LruBinder, so the heap keeps
 * register 0, the one accepts() reads.
 */

#ifndef HFI_SFI_BACKEND_H
#define HFI_SFI_BACKEND_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/context.h"
#include "sfi/linear_memory.h"
#include "sfi/lru_binder.h"
#include "vm/mmu.h"

namespace hfi::sfi
{

/** Which isolation scheme a sandbox uses. */
enum class BackendKind
{
    GuardPages,
    BoundsCheck,
    Mask,
    Hfi,
};

/** Printable backend name (matches the labels used in the figures). */
inline const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::GuardPages: return "guard-pages";
      case BackendKind::BoundsCheck: return "bounds-check";
      case BackendKind::Mask: return "mask";
      case BackendKind::Hfi: return "hfi";
    }
    return "unknown";
}

/** What a checked access should do. */
enum class AccessOutcome
{
    Ok,       ///< access proceeds at the given offset
    Wrapped,  ///< masking forced the offset in-bounds (no trap!) — §2
    Trap,     ///< precise trap (SIGSEGV / HFI fault)
};

/** Result of an isolation check. */
struct AccessCheck
{
    AccessOutcome outcome = AccessOutcome::Trap;
    /** Offset actually accessed (equals the request unless Wrapped). */
    std::uint64_t offset = 0;
};

/**
 * One scheme's modeled costs. Per-access and per-op costs are in
 * milli-cycles, so sub-cycle amortized costs (a fraction of a compare
 * absorbed by the out-of-order window, register-pressure spill costs
 * smeared over all instructions) stay deterministic without floating
 * point on the hot path.
 */
struct BackendCosts
{
    /** Springboard transition cost per enter and per exit (cycles). */
    std::uint64_t transitionCycles = 0;
    /**
     * Extra milli-cycles per load/store: the emitted compare+branch or
     * AND, plus any address computation the out-of-order core cannot
     * hide (the Firefox benches add the u32 zext + base add, and
     * hmov's residue when the access stream saturates the AGU, §6.2).
     */
    std::uint64_t accessMilli = 0;
    /**
     * Register-pressure tax per charged op: the pinned heap base (guard
     * pages: one register, §6.1 measures 2.25%) or base + bound (bounds
     * checks: two registers, 2.40%).
     */
    std::uint64_t opPressureMilli = 0;
};

/** The paper-calibrated cost row of @p kind. */
BackendCosts paperCosts(BackendKind kind);

/** The guard-page scheme's guard region: 4 GiB, as in production Wasm. */
inline constexpr std::uint64_t kGuardBytes = 4ULL << 30;

/**
 * Virtual-address-space bytes a memory of at most @p heap_bytes
 * reserves under @p kind (HFI: the heap alone, §6.3.2). The one
 * footprint rule: Backend::create reserves it, and the §6.3.2 capacity
 * of an address space is its free bytes divided by it.
 */
std::uint64_t footprintBytes(BackendKind kind, std::uint64_t heap_bytes);

/**
 * One sandbox's isolation backend. Under HFI the heap is explicit
 * region 0: hmov index 0, region register kFirstExplicitRegion.
 */
class Backend
{
  public:
    /**
     * Per-access icache tax in milli-cycles at sensitivity 100, HFI
     * only: hmov's longer instruction encodings pressure the icache on
     * big-code workloads (§6.1, 445.gobmk).
     */
    static constexpr std::uint64_t kIcacheMilliPerAccess = 4;

    /**
     * A backend of @p kind charging @p costs (default paperCosts(kind)).
     * The @p mmu pays mmap/mprotect costs; @p ctx holds HFI's region
     * registers.
     */
    Backend(vm::Mmu &mmu, core::HfiContext &ctx, BackendKind kind);
    Backend(vm::Mmu &mmu, core::HfiContext &ctx, BackendKind kind,
            BackendCosts costs);
    ~Backend();

    Backend(const Backend &) = delete;
    Backend &operator=(const Backend &) = delete;

    BackendKind kind() const { return kind_; }

    const BackendCosts &costs() const { return costs_; }

    /**
     * Create the footprint for a memory of @p initial_pages growable to
     * @p max_pages.
     * @return false when address space is exhausted (the §6.3.2
     *         scalability limit).
     */
    bool create(std::uint64_t initial_pages, std::uint64_t max_pages);

    /** Tear down the footprints and (HFI) clear their registers (§6.3.1). */
    void destroy();

    /** Sandbox::addMemory's reservation (HFI only, else throws). */
    bool addMemory(std::uint64_t initial_pages, std::uint64_t max_pages);

    /**
     * Memory @p memory (0: the heap) grew from @p old_pages to
     * @p new_pages: mprotect the new pages read-write, or (HFI) update
     * the region's bound.
     */
    void grow(std::uint64_t old_pages, std::uint64_t new_pages,
              unsigned memory = 0);

    /**
     * HFI: bind memory @p memory (>= 1) to a register for an access.
     * @return true when that took an hfi_set_region.
     */
    bool bind(unsigned memory);

    /**
     * Check (and for a mask, redirect) an access of @p width at
     * @p offset of memory @p memory (0: the heap; another must be
     * bound). Passes every access accepts() passes.
     */
    AccessCheck checkAccess(std::uint64_t offset, std::uint32_t width,
                            bool write, const LinearMemory &mem,
                            unsigned memory = 0);

    /**
     * Re-install the per-core state enforcement depends on (HFI:
     * hfi_set_region of each region it bound, §6.4.2). Needed when an
     * instance is dispatched on a core whose register state was
     * swapped since the instance last ran — the warm-pool dispatch path
     * — and before any region-locking hfi_enter. The software schemes
     * enforce through the address space and need nothing.
     */
    void rebindRegions();

    /**
     * Transition into sandboxed execution: the springboard's cycles,
     * then (HFI) a region reload and a serialized hybrid hfi_enter.
     */
    void enter();

    /** Transition back to the host. */
    void exit();

    /**
     * Inline accept for an access of @p bytes at @p offset: the memory's
     * accessible size, or HFI's live heap register. False sends the
     * access to checkAccess.
     */
    bool
    accepts(std::uint64_t offset, std::uint64_t bytes, bool write,
            const LinearMemory &mem) const
    {
        if (kind_ == BackendKind::Hfi)
            return heapAccepts(*heap_, offset, bytes, write);
        return mem.inBounds(offset, bytes);
    }

    /**
     * Inline accept for an hmov of @p bytes at @p offset through
     * @p heap (index = offset, scale 1, no displacement). For every
     * well-formed region (HfiContext::setRegion admits no other) it is
     * true exactly when AccessChecker::checkHmov passes, save a small
     * region ending at the very top of the address space, which it
     * leaves to checkAccess. A large region's 32-bit compare of bits
     * [47:16] equals `offset + bytes <= bound` because base and bound
     * are 64 KiB aligned; a small region's 33-bit compare equals it
     * outright. The last clause rejects a region whose limit wraps the
     * address space.
     */
    static bool
    heapAccepts(const core::FlatRegionSlot &heap, std::uint64_t offset,
                std::uint64_t bytes, bool write)
    {
        return heap.kind == core::RegionKind::ExplicitData &&
               (write ? heap.permWrite : heap.permRead) &&
               offset < heap.bound && bytes <= heap.bound - offset &&
               heap.base + heap.bound >= heap.base;
    }

    /** Virtual-address-space bytes the heap's footprint reserves. */
    std::uint64_t reservedVaBytes() const { return reservation; }

    /** Base virtual address of the linear memory (0 before create()). */
    std::uint64_t baseAddress() const { return base; }

    /** HFI: exit reason of the last trapping access (for tests). */
    core::ExitReason lastTrapReason() const { return lastTrap; }

  private:
    struct ExtraMemory
    {
        vm::VAddr base;
        std::uint64_t accessibleBytes;
    };

    /** HFI: explicit region @p index is @p bytes at @p region_base, RW. */
    void program(unsigned index, vm::VAddr region_base, std::uint64_t bytes);

    /** HFI: write memory @p memory's descriptor into @p slot's register. */
    void programMemory(unsigned slot, unsigned memory);

    vm::Mmu &mmu;
    core::HfiContext &ctx;
    BackendKind kind_;
    BackendCosts costs_;
    /**
     * The live explicit-region register holding the heap, in the
     * context's register file: not a copy of its bound, so a cleared or
     * swapped register traps on the next access.
     */
    const core::FlatRegionSlot *heap_;
    std::uint64_t reservation = 0;
    /** HFI: the bound last programmed into the heap region. */
    std::uint64_t accessibleBytes = 0;
    vm::VAddr base = 0;
    bool live = false;
    core::ExitReason lastTrap = core::ExitReason::None;
    /** HFI: memories 1..N-1, and (once one exists) their binder. */
    std::vector<ExtraMemory> extras_;
    std::unique_ptr<LruBinder> binder_;
};

} // namespace hfi::sfi

#endif // HFI_SFI_BACKEND_H
