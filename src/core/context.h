/**
 * @file
 * HfiContext: one core's HFI extension as the trusted runtime drives it
 * (§3, §4.4). The state and rules are an HfiState, the model the
 * simulator executes too; HfiContext adds the instruction costs charged
 * to the VirtualClock (HfiCostParams, so experiments see the paper's
 * transition-cost structure), counters, trace events, hfi_reenter's
 * saved configuration, and xsave/xrstor (§3.3.3).
 */

#ifndef HFI_CORE_CONTEXT_H
#define HFI_CORE_CONTEXT_H

#include <cstdint>
#include <optional>

#include "core/cost_model.h"
#include "core/hfi_state.h"
#include "obs/trace.h"
#include "vm/virtual_clock.h"

namespace hfi::core
{

/** Outcome of an HFI instruction that can trap. */
enum class HfiResult
{
    Ok,
    Trap, ///< the operation trapped; the MSR holds the reason
};

/**
 * One core's HFI extension as the trusted runtime drives it: configure
 * regions, hfi_enter, let sandboxed code's accesses be checked (see
 * AccessChecker), and handle exits. Each instruction applies the
 * HfiState transition of the same name (whose documentation states the
 * rule) and charges its cost.
 */
class HfiContext
{
  public:
    explicit HfiContext(vm::VirtualClock &clock, HfiCostParams costs = {});

    /** hfi_set_region. A trap is reported, not delivered. */
    HfiResult setRegion(unsigned n, const Region &region);

    /** hfi_get_region: read register @p n. Traps in a native sandbox. */
    std::optional<Region> getRegion(unsigned n);

    /** hfi_clear_region. A trap is reported, not delivered. */
    HfiResult clearRegion(unsigned n);

    /** hfi_clear_all_regions. A trap is reported, not delivered. */
    HfiResult clearAllRegions();

    /** hfi_enter. */
    HfiResult enter(const SandboxConfig &config);

    /** hfi_exit. @return the handler control transfers to, or 0. */
    VAddr exit();

    /**
     * hfi_reenter: re-enter the sandbox that was just exited, restoring
     * the configuration from before the last exit.
     */
    HfiResult reenter();

    /**
     * A syscall instruction was decoded (HfiState::syscall).
     *
     * @retval std::nullopt the syscall may proceed (HFI off, or hybrid).
     * @retval handler the exit handler the syscall was redirected to; 0
     *         when none was installed and the trap was delivered.
     */
    std::optional<VAddr> onSyscall();

    /**
     * Deliver a hardware trap or HFI bounds violation (HfiState::trap).
     * The OS then signals the trusted runtime (§3.3.2).
     */
    void onFault(ExitReason reason);

    /** Read the exit-reason MSR. */
    ExitReason readExitReasonMsr();

    /** Exit-reason MSR value without charging a read (for tests/stats). */
    ExitReason exitReason() const { return state_.msr; }

    /**
     * xsave with save-hfi-regs: snapshot the register file (§3.3.3).
     * Used by the modeled OS on process context switch.
     */
    HfiRegisterFile xsave();

    /**
     * xrstor with save-hfi-regs. Traps (and exits the sandbox) when
     * executed inside a native sandbox, since it could break isolation.
     */
    HfiResult xrstor(const HfiRegisterFile &file);

    /**
     * Ring-0 xrstor with save-hfi-regs, as executed by the OS on a
     * context switch (§3.3.3). The kernel itself runs with HFI
     * disabled, so — unlike the user-mode instruction above — this
     * restore cannot trap even when the *saved* image being replaced
     * belongs to a process preempted inside a native sandbox; it
     * unconditionally installs @p file and charges the same xrstor
     * cost. The switch-on-exit shadow bank is per-core state that the
     * kernel leaves in place (the switched-in process either does not
     * use it or re-arms it with its own hfi_enter).
     */
    void kernelXrstor(const HfiRegisterFile &file);

    /** True while HFI mode is enabled. */
    bool enabled() const { return state_.bank.enabled; }

    /** Active sandbox configuration (meaningful while enabled). */
    const SandboxConfig &config() const { return state_.bank.config; }

    /** Current value of region register @p n (no cost; for the checker). */
    Region region(unsigned n) const { return state_.bank.region(n); }

    /** The full active register bank (no cost; for the checker). */
    const HfiRegisterFile &registerFile() const { return state_.bank; }

    /** The architectural state: banks, shadow-valid bit, MSR (no cost). */
    const HfiState &state() const { return state_; }

    /** True if the last exit used the switch-on-exit path (for tests). */
    bool lastExitSwitched() const { return lastExitSwitched_; }

    const HfiCostParams &costs() const { return costs_; }
    vm::VirtualClock &clock() { return clock_; }

    /** Cumulative instruction counts, for reporting. */
    struct Stats
    {
        std::uint64_t enters = 0;
        std::uint64_t exits = 0;
        std::uint64_t serializations = 0;
        std::uint64_t regionUpdates = 0;
        std::uint64_t syscallRedirects = 0;
        std::uint64_t faults = 0;
        std::uint64_t bankSwitches = 0;
    };

    const Stats &stats() const { return stats_; }

    /**
     * Attach this core's trace ring (nullptr detaches). Instruction
     * implementations record HfiEnter/HfiExit/HfiFault/SyscallRedirect/
     * KernelXrstor and region-update events stamped on the core's
     * VirtualClock; compiled out entirely under HFI_OBS=OFF.
     */
    void setTrace(obs::TraceBuffer *trace) { trace_ = trace; }
    obs::TraceBuffer *trace() const { return trace_; }

  private:
    void charge(std::uint64_t cycles) { clock_.tick(cycles); }
    void serialize();
    /**
     * Finish a region update of register @p n (kNumRegions: all):
     * report a trap, or charge a serialization (§4.3), count and trace.
     */
    HfiResult regionUpdated(const HfiOutcome &out, unsigned n,
                            obs::EventType event);

    vm::VirtualClock &clock_;
    HfiCostParams costs_;

    HfiState state_;

    /** Saved configuration for hfi_reenter. */
    SandboxConfig lastConfig{};
    bool lastConfigValid = false;

    bool lastExitSwitched_ = false;

    obs::TraceBuffer *trace_ = nullptr;

    Stats stats_;
};

} // namespace hfi::core

#endif // HFI_CORE_CONTEXT_H
