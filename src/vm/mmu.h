/**
 * @file
 * Process memory-management model: mmap/mprotect/madvise/munmap with a
 * calibrated virtual-time cost model.
 *
 * The paper's guard-page baseline leans on exactly these syscalls:
 *  - sandbox creation reserves 8 GiB with mmap(PROT_NONE),
 *  - heap growth calls mprotect() per 64 KiB increment (§6.1),
 *  - sandbox teardown calls madvise(MADV_DONTNEED) (§5.1, §6.3.1),
 * and their costs (ring transition, VMA walking, per-page work, TLB
 * shootdown) are what HFI elides. The cost constants below are calibrated
 * so that the microbenchmarks land on the paper's absolute numbers
 * (25.7 µs stock teardown, ~166 µs per mprotect-grow, etc.) and are
 * documented per-constant.
 */

#ifndef HFI_VM_MMU_H
#define HFI_VM_MMU_H

#include <cstdint>
#include <optional>

#include "vm/address_space.h"
#include "vm/page_table.h"
#include "vm/virtual_clock.h"

namespace hfi::vm
{

/**
 * Cost parameters for modeled memory-management syscalls, in nanoseconds.
 *
 * Calibration sources (see DESIGN.md):
 *  - syscallFixedNs: user->kernel->user transition incl. KPTI-era
 *    overhead, ~1.8 µs.
 *  - mprotectShootdownNs: permission changes broadcast TLB-invalidate
 *    IPIs; calibrated so a 16-page mprotect grow costs ~166 µs total,
 *    matching the paper's 10.92 s for 65535 grows.
 *  - madvise*: calibrated to the paper's 25.7 µs per-sandbox stock
 *    teardown / 23.1 µs batched / 31.1 µs batched-with-guard-pages split
 *    (fixed ~2.6 µs, ~1.44 µs per resident page discarded, ~1.95 ns per
 *    non-present 2 MiB PMD range skipped — the kernel's zap walk skips
 *    empty page-table subtrees at PMD granularity, which is exactly why
 *    batching across 8 GiB guard regions costs ~8 µs per sandbox while
 *    batching across HFI's guard-free adjacent heaps costs nothing).
 */
struct MmuCostParams
{
    double syscallFixedNs = 1800.0;

    double mmapReserveNs = 1400.0;      ///< VMA insert; mapping is lazy
    double munmapFixedNs = 1200.0;      ///< VMA removal
    double munmapShootdownNs = 16000.0; ///< TLB shootdown on unmap

    double mprotectFixedNs = 1000.0;
    double mprotectShootdownNs = 135100.0;
    double mprotectPerPageNs = 1440.0;

    double madviseFixedNs = 800.0;
    double madvisePerResidentPageNs = 1440.0;
    double madvisePerWalkedPmdNs = 1.95;

    double pageFaultNs = 1100.0; ///< minor fault on first touch
};

/** The costs every Mmu charges. */
inline constexpr MmuCostParams kMmuCosts{};

/** Aggregate syscall statistics, for tests and reporting. */
struct MmuStats
{
    std::uint64_t mmapCalls = 0;
    std::uint64_t munmapCalls = 0;
    std::uint64_t mprotectCalls = 0;
    std::uint64_t madviseCalls = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t pagesDiscarded = 0;
};

/** Result of an access check against the page table. */
enum class AccessResult
{
    Ok,
    NotMapped,   ///< SIGSEGV: no VMA / PROT_NONE guard page
    BadPermission///< SIGSEGV: mapped but permission missing
};

/**
 * The process-level memory management unit.
 *
 * Combines the reservation map (AddressSpace) with page-level state
 * (PageTable) and charges every modeled syscall to the VirtualClock.
 */
class Mmu
{
  public:
    Mmu(VirtualClock &clock, unsigned va_bits = 47);

    /**
     * Map @p size bytes anywhere, aligned to @p align, with protection
     * @p prot. PageProt::None is how Wasm runtimes reserve heap + guard
     * region.
     * @return base address or std::nullopt when the VA space is full.
     */
    std::optional<VAddr> mmap(std::uint64_t size, PageProt prot,
                              std::uint64_t align = kPageSize);

    /** Unmap the reservation starting at @p addr. */
    bool munmap(VAddr addr);

    /** Change protections on a page range (charges shootdown cost). */
    void mprotect(VAddr addr, std::uint64_t size, PageProt prot);

    /**
     * madvise(MADV_DONTNEED): discard residency over [addr, addr+size).
     * Walks every page in the range (resident or not) like the kernel
     * does, which is why batching across guard regions is costly without
     * HFI (§6.3.1).
     */
    void madviseDontneed(VAddr addr, std::uint64_t size);

    /**
     * Check a data access of @p size bytes at @p addr. First touches
     * charge a minor page fault and mark the page resident.
     */
    AccessResult access(VAddr addr, std::uint64_t size, bool write);

    /** Check an instruction fetch at @p addr. */
    AccessResult fetch(VAddr addr);

    const MmuStats &stats() const { return stats_; }
    AddressSpace &addressSpace() { return space; }
    PageTable &pageTable() { return table; }
    VirtualClock &clock() { return clock_; }

  private:
    void charge(double ns) { clock_.tick(clock_.nsToCycles(ns)); }

    VirtualClock &clock_;
    AddressSpace space;
    PageTable table;
    MmuStats stats_;
};

} // namespace hfi::vm

#endif // HFI_VM_MMU_H
