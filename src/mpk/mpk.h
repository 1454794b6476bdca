/**
 * @file
 * Intel Memory Protection Keys model — the ERIM-style baseline (§6.4.2,
 * Fig 5, §7).
 *
 * MPK tags each page with one of 16 protection keys; the user-mode PKRU
 * register holds per-key access-disable / write-disable bits, switched
 * with the unprivileged (but serializing-ish) wrpkru instruction. The
 * model captures the two properties the paper contrasts with HFI:
 *
 *  - switching the active domain is cheap (a wrpkru, ~23-30 cycles) but
 *    *tagging* memory requires a pkey_mprotect system call; and
 *  - only 16 keys exist (15 usable), so MPK cannot scale to the
 *    thousands of concurrent sandboxes HFI targets (§7).
 */

#ifndef HFI_MPK_MPK_H
#define HFI_MPK_MPK_H

#include <array>
#include <cstdint>
#include <map>
#include <optional>

#include "vm/mmu.h"

namespace hfi::mpk
{

/** Number of architectural protection keys on x86. */
constexpr unsigned kNumPkeys = 16;

/** Cycle/ns costs of MPK operations. */
struct MpkCostParams
{
    /** wrpkru: write the PKRU register (ERIM measures ~11-260 cycles
     *  depending on surrounding serialization; 48 matches ERIM's
     *  steady-state switch cost incl. the check sequence around it). */
    std::uint64_t wrpkruCycles = 48;
    /** pkey_alloc / pkey_free system calls (ring transition). */
    double pkeySyscallNs = 1800.0;
};

/** The costs every MpkDomainManager charges. */
inline constexpr MpkCostParams kMpkCosts{};

/** Per-key access bits in PKRU (true = disabled). */
struct PkeyRights
{
    bool accessDisable = false;
    bool writeDisable = false;
};

/**
 * The MPK state of one thread: key allocation bitmap, per-page key tags
 * (kept at 4 KiB granularity over the shared Mmu's address space),
 * and the PKRU register.
 */
class MpkDomainManager
{
  public:
    explicit MpkDomainManager(vm::Mmu &mmu);

    /**
     * pkey_alloc: allocate a protection key.
     * @return the key, or std::nullopt when all 15 are taken — the
     *         scaling wall §7 describes.
     */
    std::optional<unsigned> pkeyAlloc();

    /** pkey_free. */
    bool pkeyFree(unsigned key);

    /** pkey_mprotect: tag [addr, addr+size) with @p key (syscall). */
    bool pkeyMprotect(vm::VAddr addr, std::uint64_t size, unsigned key);

    /** wrpkru: replace the PKRU with @p rights for each key. */
    void wrpkru(const std::array<PkeyRights, kNumPkeys> &rights);

    /**
     * Convenience domain switch: enable only @p key (plus key 0, the
     * default), disabling access to every other allocated key — the
     * ERIM transition sequence (two wrpkru per boundary crossing).
     */
    void switchToDomain(unsigned key);

    /**
     * Check a data access at @p addr under the current PKRU.
     * @return true when permitted.
     */
    bool checkAccess(vm::VAddr addr, bool write) const;

    /** Key tagged on the page containing @p addr (0 = default). */
    unsigned keyAt(vm::VAddr addr) const;

    unsigned allocatedKeys() const { return allocated; }

    /** Number of wrpkru executed (for the Fig 5 accounting). */
    std::uint64_t wrpkruCount() const { return wrpkrus; }

  private:
    vm::Mmu &mmu;
    /** Allocation state; key 0 always allocated (the default key). */
    std::array<bool, kNumPkeys> keyUsed{};
    unsigned allocated = 1;
    /** Page-number -> key; absent means key 0. */
    std::map<vm::VAddr, unsigned> tags;
    std::array<PkeyRights, kNumPkeys> pkru{};
    std::uint64_t wrpkrus = 0;
};

} // namespace hfi::mpk

#endif // HFI_MPK_MPK_H
