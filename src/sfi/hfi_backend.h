/**
 * @file
 * The HFI backend: the linear memory is an explicit *large* region
 * accessed through hmov (§3.2, §5.1).
 *
 * Mirrors the paper's Wasm2c integration: no guard reservation (the 4 GiB
 * virtual-memory footprint shrinks to just the heap, enabling §6.3.2's
 * 256,000-sandbox scaling), mprotect-based growth replaced by a region-
 * register update (§6.1's 30x faster heap growth), and hfi_enter /
 * hfi_exit — optionally serialized for Spectre protection (§3.4) — around
 * sandbox transitions.
 *
 * Bounds enforcement goes through the real AccessChecker::checkHmov
 * bit-level check, so out-of-bounds accesses trap with the same precise
 * semantics the hardware provides. The Sandbox's inline fast path asks
 * accepts() first, which reads the same live heap register; anything it
 * does not accept reaches checkAccess and so checkHmov.
 */

#ifndef HFI_SFI_HFI_BACKEND_H
#define HFI_SFI_HFI_BACKEND_H

#include "core/checker.h"
#include "core/context.h"
#include "sfi/backend.h"
#include "vm/mmu.h"

namespace hfi::sfi
{

/** Configuration of the HFI-backed sandbox. */
struct HfiBackendConfig
{
    /** Serialize hfi_enter/hfi_exit for Spectre protection (§3.4). */
    bool serialized = true;
    /** Use the switch-on-exit extension instead of serializing (§4.5). */
    bool switchOnExit = false;
    /** Residual hmov addressing milli-cycles per access (the hmov µop
     *  replaces the base add; a small residue remains when the access
     *  stream saturates the AGU — used by the Firefox benches). */
    std::uint64_t addressingMilli = 0;
};

/**
 * The heap is explicit region 0: hmov index 0, region register
 * kFirstExplicitRegion.
 */
class HfiBackend : public IsolationBackend
{
  public:
    /**
     * Per-access icache tax in milli-cycles at sensitivity 100: hmov's
     * longer instruction encodings pressure the icache on big-code
     * workloads (§6.1, 445.gobmk).
     */
    static constexpr std::uint64_t kIcacheMilliPerAccess = 4;

    HfiBackend(vm::Mmu &mmu, core::HfiContext &ctx,
               HfiBackendConfig config = {});
    ~HfiBackend() override;

    BackendKind kind() const override { return BackendKind::Hfi; }

    bool create(std::uint64_t initial_pages,
                std::uint64_t max_pages) override;
    void destroy() override;
    void grow(std::uint64_t old_pages, std::uint64_t new_pages) override;
    AccessCheck checkAccess(std::uint64_t offset, std::uint32_t width,
                            bool write, const LinearMemory &mem) override;
    void rebindRegions() override;
    void enterSandbox() override;
    void exitSandbox() override;
    SteadyStateCosts steadyStateCosts() const override;

    std::uint64_t reservedVaBytes() const override { return maxBytes; }

    std::uint64_t baseAddress() const override { return base; }

    /**
     * The live explicit-region register holding the heap, in the
     * context's register file. The Sandbox keeps this reference, not a
     * copy of its bound: a cleared or swapped register must trap on the
     * next access.
     */
    const core::FlatRegionSlot &heapSlot() const;

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
    accepts(const core::FlatRegionSlot &heap, std::uint64_t offset,
            std::uint64_t bytes, bool write)
    {
        return heap.kind == core::RegionKind::ExplicitData &&
               (write ? heap.permWrite : heap.permRead) &&
               offset < heap.bound && bytes <= heap.bound - offset &&
               heap.base + heap.bound >= heap.base;
    }

    /** Exit reason of the last trapping access (for tests). */
    core::ExitReason lastTrapReason() const { return lastTrap; }

    const HfiBackendConfig &config() const { return config_; }

  private:
    /** Write the heap region descriptor into the explicit-region slot. */
    void programRegion(std::uint64_t accessible_bytes);

    vm::Mmu &mmu;
    core::HfiContext &ctx;
    HfiBackendConfig config_;
    std::uint64_t maxBytes = 0;
    std::uint64_t accessibleBytes = 0;
    vm::VAddr base = 0;
    bool live = false;
    core::ExitReason lastTrap = core::ExitReason::None;
};

} // namespace hfi::sfi

#endif // HFI_SFI_HFI_BACKEND_H
