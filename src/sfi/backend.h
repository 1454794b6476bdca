/**
 * @file
 * The pluggable isolation backend interface.
 *
 * The paper contrasts four ways of enforcing a Wasm linear memory's
 * bounds (§2, §5.2, Fig 3):
 *
 *  - guard pages: the memory is placed in an 8 GiB reservation whose
 *    inaccessible tail traps out-of-bounds accesses via the MMU;
 *  - bounds checks: a compare+branch precedes every access;
 *  - address masking: classic Wahbe-style SFI, which silently wraps
 *    out-of-bounds accesses instead of trapping;
 *  - HFI: an explicit region accessed through hmov, checked in hardware
 *    in parallel with address translation.
 *
 * SoftwareBackend implements the first three, which differ only in data
 * (software_backend.h); HfiBackend the last.
 *
 * A backend provides two things: *enforcement* (checkAccess decides
 * whether an access traps and where it lands) and *costs* (a small POD of
 * per-access/per-op overheads that the Sandbox charges on the hot path,
 * plus lifecycle methods that charge MMU/HFI work to the virtual clock).
 *
 * checkAccess is the Sandbox's slow path, not its per-access call: the
 * Sandbox accepts in-bounds accesses inline (against the memory's size,
 * or HFI's live heap register, HfiBackend::accepts) and calls
 * checkAccess only for the rest, so every trap, every mask wrap and
 * every HFI trap reason comes from here.
 */

#ifndef HFI_SFI_BACKEND_H
#define HFI_SFI_BACKEND_H

#include <cstdint>
#include <string>

#include "vm/virtual_clock.h"

namespace hfi::sfi
{

class LinearMemory;

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
 * Steady-state costs the Sandbox charges inline on every access/op.
 *
 * Expressed in milli-cycles so sub-cycle amortized costs (a fraction of
 * a compare absorbed by the out-of-order window, register-pressure
 * spill costs smeared over all instructions) stay deterministic without
 * floating point on the hot path.
 */
struct SteadyStateCosts
{
    /** Extra milli-cycles per load beyond the bare memory operation. */
    std::uint64_t loadExtraMilli = 0;
    /** Extra milli-cycles per store. */
    std::uint64_t storeExtraMilli = 0;
    /**
     * Register-pressure tax in milli-cycles per charged ALU op: the
     * cost of pinning the heap base (guard pages: one register, §6.1
     * measures 2.25%) or base+bound (bounds checks: two registers,
     * 2.40%) in general-purpose registers.
     */
    std::uint64_t opPressureMilli = 0;
    /**
     * Instruction-cache tax in milli-cycles per load/store, scaled by
     * the workload's icache sensitivity (0..100): hmov's longer
     * encodings hurt big-code workloads like 445.gobmk (§6.1).
     */
    std::uint64_t icacheMilliPerAccess = 0;
};

/**
 * Abstract isolation backend. One instance per sandbox.
 */
class IsolationBackend
{
  public:
    virtual ~IsolationBackend() = default;

    virtual BackendKind kind() const = 0;

    /**
     * Create the sandbox's address-space footprint for a memory of
     * @p initial_pages growable to @p max_pages.
     * @return false when address space is exhausted (the §6.3.2
     *         scalability limit).
     */
    virtual bool create(std::uint64_t initial_pages,
                        std::uint64_t max_pages) = 0;

    /** Tear down the footprint (the §6.3.1 teardown path). */
    virtual void destroy() = 0;

    /**
     * The memory grew from @p old_pages to @p new_pages: charge whatever
     * the scheme needs (mprotect for guard pages, hfi_set_region for
     * HFI, a bound-variable update for bounds checks).
     */
    virtual void grow(std::uint64_t old_pages, std::uint64_t new_pages) = 0;

    /**
     * Check (and possibly redirect) an access of @p width at @p offset.
     * Must pass every access the Sandbox's inline accept passes.
     */
    virtual AccessCheck checkAccess(std::uint64_t offset, std::uint32_t width,
                                    bool write,
                                    const LinearMemory &mem) = 0;

    /**
     * Re-install any per-core state this sandbox's enforcement depends
     * on (HFI: hfi_set_region of the heap region, §6.4.2). Needed when
     * an instance is dispatched on a core whose register state was
     * swapped since the instance last ran — the warm-pool dispatch path
     * — and must happen before any region-locking hfi_enter. Schemes
     * whose enforcement lives in the address space (guard pages, masks,
     * bounds variables) need nothing: the default is free.
     */
    virtual void rebindRegions() {}

    /** Transition into sandboxed execution; charges transition cost. */
    virtual void enterSandbox() = 0;

    /** Transition back to the host. */
    virtual void exitSandbox() = 0;

    /** Steady-state per-access/per-op cost table. */
    virtual SteadyStateCosts steadyStateCosts() const = 0;

    /** Virtual-address-space bytes this sandbox's footprint reserves. */
    virtual std::uint64_t reservedVaBytes() const = 0;

    /** Base virtual address of the linear memory (0 before create()). */
    virtual std::uint64_t baseAddress() const = 0;
};

} // namespace hfi::sfi

#endif // HFI_SFI_BACKEND_H
