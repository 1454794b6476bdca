/**
 * @file
 * HFI's architectural state and the rules of its instructions (§3.3,
 * §3.4, §4.4, §4.5): the one model both the runtime-facing HfiContext
 * and the simulator's functional core execute. Each transition returns
 * an HfiOutcome; what it costs and how it is counted is the caller's.
 */

#ifndef HFI_CORE_HFI_STATE_H
#define HFI_CORE_HFI_STATE_H

#include <array>
#include <cstdint>

#include "core/region.h"

namespace hfi::core
{

/**
 * Why the core last left HFI mode (or why an HFI operation trapped).
 * Recorded in the exit-reason MSR (§3.3.2) and readable by the trusted
 * runtime's exit handler or SIGSEGV handler.
 */
enum class ExitReason : std::uint8_t
{
    None = 0,
    HfiExit,            ///< sandbox executed hfi_exit
    Syscall,            ///< native sandbox attempted a system call
    DataBoundsViolation,///< load/store missed all implicit data regions
    CodeBoundsViolation,///< instruction fetch missed all code regions
    PermissionViolation,///< first-match region lacked the permission
    HmovBoundsViolation,///< hmov effective address out of region bounds
    HmovNegativeOperand,///< hmov used a negative index/displacement
    HmovOverflow,       ///< hmov effective-address computation overflowed
    HmovEmptyRegion,    ///< hmov through a cleared/ill-typed region
    HardwareFault,      ///< non-HFI trap (e.g. page fault) in sandbox
    IllegalRegionUpdate,///< region write attempted in a native sandbox
    IllegalXrstor,      ///< xrstor(save-hfi-regs) inside a native sandbox
};

/** Number of ExitReason values (for per-reason accounting arrays). */
constexpr unsigned kNumExitReasons =
    static_cast<unsigned>(ExitReason::IllegalXrstor) + 1;

/**
 * Parameters of hfi_enter — the paper's sandbox_t (appendix A.1).
 */
struct SandboxConfig
{
    bool isHybrid = false;     ///< hybrid (trusted-compiler) sandbox
    bool isSerialized = false; ///< serialize enter/exit (§3.4)
    bool switchOnExit = false; ///< use the switch-on-exit extension
    /** Exit-handler address; 0 means no handler installed. */
    VAddr exitHandler = 0;

    bool operator==(const SandboxConfig &) const = default;
};

/**
 * A snapshot of the HFI register file, as saved/restored by the OS with
 * xsave/xrstor (§3.3.3) or swapped by switch-on-exit (§4.5).
 *
 * Each region register is stored once, as the flattened slot the
 * per-access checks (AccessChecker::checkData/checkFetch/checkHmov)
 * read; region() decodes the Region value for everything cold
 * (validation, tests, logs).
 */
struct HfiRegisterFile
{
    SandboxConfig config{};
    bool enabled = false;

    /** Region register @p n, decoded from its slot. */
    Region region(unsigned n) const { return decodeRegion(slots_[n]); }

    /** Write region register @p n. */
    void
    setRegion(unsigned n, const Region &region)
    {
        slots_[n] = flattenRegion(region);
    }

    /** Flattened slot @p n — what the per-access checks read. */
    const FlatRegionSlot &flat(unsigned n) const { return slots_[n]; }

    bool operator==(const HfiRegisterFile &) const = default;

  private:
    std::array<FlatRegionSlot, kNumRegions> slots_{};
};

/** What one HFI transition did, for its caller to charge and act on. */
struct HfiOutcome
{
    /**
     * ExitReason::None, or why the instruction trapped. A trapping
     * transition records the reason in the MSR and changes nothing
     * else; HfiState::trap delivers it.
     */
    ExitReason trap = ExitReason::None;
    /** The instruction serializes the pipeline (§3.4, §4.3). */
    bool serializes = false;
    /** Control transfers here; 0 falls through. */
    VAddr handler = 0;
    /** Switch-on-exit swapped the active and shadow banks (§4.5). */
    bool switchedBanks = false;
};

/** One core's HFI architectural state and instruction semantics. */
struct HfiState
{
    /** The active register bank. */
    HfiRegisterFile bank{};
    /** The switch-on-exit shadow bank: the runtime's registers (§4.5). */
    HfiRegisterFile shadow{};
    bool shadowValid = false;
    /** Exit-reason MSR (§3.3.2). */
    ExitReason msr = ExitReason::None;

    /** Region registers are locked inside a native sandbox (§3.3.1). */
    bool regionsLocked() const { return bank.enabled && !bank.config.isHybrid; }

    /**
     * hfi_enter. With switch-on-exit, the current bank (the trusted
     * runtime's own) moves to the shadow bank for the matching hfi_exit
     * to restore (§4.5). Serializes when config.isSerialized.
     */
    HfiOutcome enter(const SandboxConfig &config);

    /**
     * hfi_exit. Under switch-on-exit with a valid shadow, restores the
     * runtime's bank and stays in HFI mode without serializing (§3.4).
     * Otherwise disables HFI, records ExitReason::HfiExit, serializes
     * for a serialized config, and transfers to the installed exit
     * handler (none: fall through).
     */
    HfiOutcome exit();

    /**
     * A syscall instruction (§4.4). Outside HFI and inside a hybrid
     * sandbox it passes through (an empty outcome). In a native sandbox
     * it becomes a jump to the exit handler, disabling HFI and recording
     * ExitReason::Syscall; with no handler installed it traps instead.
     */
    HfiOutcome syscall();

    /**
     * hfi_set_region. Traps (IllegalRegionUpdate) on a register number
     * out of range, inside a native sandbox, or when @p region is not
     * storable in register @p n; serializes inside a hybrid sandbox
     * (§4.3).
     */
    HfiOutcome setRegion(unsigned n, const Region &region);

    /** hfi_clear_region: setRegion(n, EmptyRegion{}). */
    HfiOutcome clearRegion(unsigned n) { return setRegion(n, EmptyRegion{}); }

    /** hfi_clear_all_regions. Same locking and serialization rules. */
    HfiOutcome clearAllRegions();

    /**
     * The access rule of hfi_get/set/clear_region: traps
     * (IllegalRegionUpdate) unless register @p n exists and the
     * registers are unlocked.
     */
    HfiOutcome regionAccess(unsigned n);

    /**
     * Deliver a trap (§3.3.2): HFI is disabled, the shadow bank is
     * discarded, and the MSR records @p reason.
     */
    void trap(ExitReason reason);

    bool operator==(const HfiState &) const = default;
};

} // namespace hfi::core

#endif // HFI_CORE_HFI_STATE_H
