/**
 * @file
 * Cycle-cost parameters for HFI instructions (§3.4, §4.4, appendix A.2).
 *
 * HFI's design goal is that the steady-state data path is free (checks run
 * in parallel with the dtb lookup), so almost all modeled cost sits in the
 * transition instructions. The constants come from the paper:
 *
 *  - Serialized hfi_enter/hfi_exit cost ~30-60 cycles (§3.4, "based on the
 *    cost of similar serializing instructions"); we use 45 as the
 *    midpoint.
 *  - Unserialized enters/exits are "on the same order as a function call"
 *    (§1), i.e. low tens of cycles.
 *  - hfi_set_region "moves metadata from memory to HFI registers" (§6.4.2,
 *    appendix A.2): two 64-bit loads plus a register write.
 *  - Redirected syscalls cost one extra decode-stage cycle (§4.4).
 */

#ifndef HFI_CORE_COST_MODEL_H
#define HFI_CORE_COST_MODEL_H

#include <cstdint>

namespace hfi::core
{

/** Cycle costs of HFI operations charged to the virtual clock. */
struct HfiCostParams
{
    /** Full pipeline serialization (cpuid-class), §3.4: 30-60 cycles. */
    std::uint64_t serializeCycles = 45;

    /** Unserialized hfi_enter: function-call order of magnitude. */
    std::uint64_t enterCycles = 12;

    /** Unserialized hfi_exit. */
    std::uint64_t exitCycles = 10;

    /** hfi_reenter (restores the MSR-recorded sandbox). */
    std::uint64_t reenterCycles = 12;

    /**
     * hfi_set_region: two 64-bit metadata loads plus the internal
     * register write (§6.4.2: "HFI takes a few cycles to move metadata
     * from memory to HFI registers on each transition").
     */
    std::uint64_t setRegionCycles = 6;

    /** hfi_get_region: internal register reads plus two stores. */
    std::uint64_t getRegionCycles = 6;

    /** hfi_clear_region. */
    std::uint64_t clearRegionCycles = 2;

    /** hfi_clear_all_regions. */
    std::uint64_t clearAllRegionsCycles = 8;

    /**
     * Extra serialization charged when region updates execute inside a
     * hybrid sandbox (§4.3: "they do serialize when executed in a hybrid
     * sandbox, to ensure the correctness of in-flight instructions").
     */
    std::uint64_t hybridRegionUpdateSerializeCycles = 45;

    /**
     * Additional flush cost for updating a *code* region (§4.3:
     * "hfi_set_region(code,...) flushes any pending memory operations").
     */
    std::uint64_t codeRegionFlushCycles = 20;

    /**
     * Single-cycle microcode check added to syscall decode while HFI is
     * active (§4.4).
     */
    std::uint64_t syscallCheckCycles = 1;

    /** Microcode jump to the exit handler on a redirected syscall. */
    std::uint64_t syscallRedirectCycles = 10;

    /** Saving/restoring the HFI register file via xsave/xrstor (§3.3.3). */
    std::uint64_t xsaveHfiCycles = 24;
    std::uint64_t xrstorHfiCycles = 24;

    /**
     * Register-bank swap performed by switch-on-exit enters/exits (§4.5):
     * a microcoded copy of the 22 internal registers to/from the shadow
     * bank, cheaper than a full serialization.
     */
    std::uint64_t switchBankCycles = 8;

    /** Reading the exit-reason MSR (rdmsr-class, but user readable). */
    std::uint64_t readMsrCycles = 4;
};

/** The costs every HfiContext charges. */
inline constexpr HfiCostParams kHfiCosts{};

} // namespace hfi::core

#endif // HFI_CORE_COST_MODEL_H
