/**
 * @file
 * The software isolation schemes HFI is measured against (§2, Fig 3,
 * §6.1): guard pages, conditional bounds checks and address masking.
 *
 * All three enforce the same linear-memory model and differ only in
 * data:
 *
 *  - the address space they reserve (footprintBytes). Guard pages
 *    reserve the heap plus a 4 GiB PROT_NONE guard, so any
 *    `base + u32_addr + u32_offset` lands either in accessible memory
 *    or in a page that traps. Bounds checks reserve the heap alone.
 *    Masking (classic Wahbe-style SFI, [78]) reserves a power of two
 *    aligned to itself, so an AND keeps every address inside it;
 *  - what an out-of-bounds access does: a precise trap (the guard
 *    page's SIGSEGV, the bounds check's branch to a trap stub) or, for
 *    masking, a silent wrap onto unrelated in-bounds data — the
 *    imprecise-trap defect the paper rules masking out for;
 *  - one cost row (SoftwareCosts).
 *
 * Growth is the same for all three: the newly accessible pages flip
 * from PROT_NONE to read-write with mprotect(), the operation HFI's
 * region-register update replaces (§6.1's 30x gap).
 */

#ifndef HFI_SFI_SOFTWARE_BACKEND_H
#define HFI_SFI_SOFTWARE_BACKEND_H

#include "sfi/backend.h"
#include "vm/mmu.h"

namespace hfi::sfi
{

/** One software scheme's modeled costs (milli-cycles: SteadyStateCosts). */
struct SoftwareCosts
{
    /** Springboard transition cost per enter and per exit (cycles). */
    std::uint64_t transitionCycles = 12;
    /**
     * Extra milli-cycles per load/store: the emitted compare+branch or
     * AND, plus any address computation the out-of-order core cannot
     * hide (the Firefox benches add the u32 zext + base add, §6.2).
     */
    std::uint64_t accessMilli = 0;
    /** Register-pressure tax per op: the pinned heap base (and bound). */
    std::uint64_t opPressureMilli = 0;
};

/** The paper-calibrated row of @p kind; throws for BackendKind::Hfi. */
SoftwareCosts paperCosts(BackendKind kind);

/** The guard-page scheme's guard region: 4 GiB, as in production Wasm. */
inline constexpr std::uint64_t kGuardBytes = 4ULL << 30;

/**
 * Virtual-address-space bytes a memory of at most @p heap_bytes
 * reserves under @p kind (HFI: the heap alone, §6.3.2). The one
 * footprint rule: SoftwareBackend::create and
 * Runtime::addressSpaceCapacity both use it.
 */
std::uint64_t footprintBytes(BackendKind kind, std::uint64_t heap_bytes);

class SoftwareBackend : public IsolationBackend
{
  public:
    /**
     * @p kind is GuardPages, BoundsCheck or Mask (Hfi throws
     * std::invalid_argument); @p costs defaults to paperCosts(kind).
     * The @p mmu pays the mmap/mprotect costs.
     */
    SoftwareBackend(vm::Mmu &mmu, BackendKind kind);
    SoftwareBackend(vm::Mmu &mmu, BackendKind kind, SoftwareCosts costs);
    ~SoftwareBackend() override;

    BackendKind kind() const override { return kind_; }

    bool create(std::uint64_t initial_pages,
                std::uint64_t max_pages) override;
    void destroy() override;
    void grow(std::uint64_t old_pages, std::uint64_t new_pages) override;
    AccessCheck checkAccess(std::uint64_t offset, std::uint32_t width,
                            bool write, const LinearMemory &mem) override;
    void enterSandbox() override;
    void exitSandbox() override;
    SteadyStateCosts steadyStateCosts() const override;

    std::uint64_t reservedVaBytes() const override { return reservation; }

    std::uint64_t baseAddress() const override { return base; }

  private:
    vm::Mmu &mmu;
    BackendKind kind_;
    SoftwareCosts costs_;
    std::uint64_t reservation = 0;
    vm::VAddr base = 0;
    bool live = false;
};

} // namespace hfi::sfi

#endif // HFI_SFI_SOFTWARE_BACKEND_H
