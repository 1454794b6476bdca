/**
 * @file
 * The OS side of HFI (§3.3.3): "Multiple processes can use HFI
 * concurrently. To enable this, the OS must save the contents of HFI
 * registers (along with the general-purpose registers) when switching
 * between processes... HFI adds a flag (save-hfi-regs) to the x86 xsave
 * and xrstor instructions."
 *
 * This module is that "simple and minimal change": a round-robin
 * process scheduler whose context switch extends the usual xsave/xrstor
 * pair with the HFI register file. Each process gets its own view of
 * the region registers; a process that is preempted mid-sandbox resumes
 * still sandboxed.
 */

#ifndef HFI_OS_SCHEDULER_H
#define HFI_OS_SCHEDULER_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/context.h"
#include "vm/virtual_clock.h"

namespace hfi::os
{

/** Costs of the modeled kernel context switch. */
struct SchedulerCosts
{
    /** Ring transition + scheduler bookkeeping + GP xsave/xrstor, ns. */
    double contextSwitchNs = 1200.0;
    /**
     * Signal-frame setup + delivery on top of the ordinary switch when
     * the kernel routes a fault to the trusted runtime (§3.3.2's
     * SIGSEGV path), ns.
     */
    double signalDeliveryNs = 850.0;
};

/**
 * The costs every Scheduler charges. The save-hfi-regs flag's 22 extra
 * 64-bit registers (§4's register budget) add HfiContext's xsave and
 * xrstor cycles to every switch.
 */
inline constexpr SchedulerCosts kSchedulerCosts{};

/** One process's saved context. */
struct Process
{
    int pid = -1;
    std::string name;
    /** HFI register file captured at the last switch-out. */
    core::HfiRegisterFile hfiState{};
    std::uint64_t switchIns = 0;
};

/**
 * A miniature round-robin scheduler over one core's HfiContext.
 *
 * Only the HFI-relevant part of a context switch is modeled; general-
 * purpose register save/restore is a flat cost.
 */
class Scheduler
{
  public:
    explicit Scheduler(core::HfiContext &ctx);

    /** Create a process; the first one becomes current. */
    int createProcess(const std::string &name);

    /**
     * Switch to @p pid: xsave the current process's HFI registers,
     * xrstor the target's.
     * @return false for an unknown pid.
     */
    bool switchTo(int pid);

    /** Round-robin: switch to the next process in pid order. */
    int yield();

    /**
     * Deliver a fault signal to @p pid: an HFI trap or watchdog kill in
     * the current process makes the kernel build a signal frame and
     * switch to the trusted runtime (§3.3.2). Charges signalDeliveryNs
     * on top of the ordinary context switch.
     * @return false for an unknown pid.
     */
    bool deliverFault(int pid);

    /** Fault signals delivered since construction. */
    std::uint64_t signalsDelivered() const { return signalsDelivered_; }

    int currentPid() const { return current; }
    const Process &process(int pid) const { return processes[pid]; }
    std::size_t processCount() const { return processes.size(); }

    /** Context switches performed since construction (for reporting). */
    std::uint64_t totalSwitches() const { return totalSwitches_; }

    core::HfiContext &context() { return ctx; }

    /**
     * Attach this core's trace ring: switchTo records ContextSwitch
     * (outgoing pid, incoming pid), deliverFault records SignalDeliver.
     * The underlying kernelXrstor is traced by the HfiContext itself.
     */
    void setTrace(obs::TraceBuffer *trace) { trace_ = trace; }

  private:
    core::HfiContext &ctx;
    std::vector<Process> processes;
    int current = -1;
    std::uint64_t totalSwitches_ = 0;
    std::uint64_t signalsDelivered_ = 0;
    obs::TraceBuffer *trace_ = nullptr;
};

} // namespace hfi::os

#endif // HFI_OS_SCHEDULER_H
