#include "os/scheduler.h"

namespace hfi::os
{

Scheduler::Scheduler(core::HfiContext &ctx) : ctx(ctx)
{
}

int
Scheduler::createProcess(const std::string &name)
{
    Process process;
    process.pid = static_cast<int>(processes.size());
    process.name = name;
    // A fresh process starts with a cleared HFI register file — the
    // kernel zeroes the xsave area, so no region state leaks between
    // processes.
    processes.push_back(process);
    if (current < 0)
        current = process.pid;
    return process.pid;
}

bool
Scheduler::switchTo(int pid)
{
    if (pid < 0 || pid >= static_cast<int>(processes.size()))
        return false;
    auto &clock = ctx.clock();
    clock.tick(clock.nsToCycles(kSchedulerCosts.contextSwitchNs));
    HFI_OBS_RECORD(trace_, obs::EventType::ContextSwitch, clock.nowNsFast(),
                   static_cast<std::uint64_t>(current),
                   static_cast<std::uint64_t>(pid));

    // xsave with save-hfi-regs: capture the outgoing process's HFI
    // registers (§3.3.3)...
    processes[current].hfiState = ctx.xsave();
    // ...and restore the incoming one's through the *kernel's* xrstor.
    // The ring-0 restore never traps — the user-mode xrstor would when
    // the outgoing process was preempted inside a native sandbox, and
    // taking that trap here used to leak the outgoing process's region
    // state into the incoming one. The save/restore cycle costs from
    // core/cost_model.h are charged on every switch.
    ctx.kernelXrstor(processes[pid].hfiState);
    current = pid;
    ++processes[pid].switchIns;
    ++totalSwitches_;
    return true;
}

bool
Scheduler::deliverFault(int pid)
{
    if (pid < 0 || pid >= static_cast<int>(processes.size()))
        return false;
    auto &clock = ctx.clock();
    clock.tick(clock.nsToCycles(kSchedulerCosts.signalDeliveryNs));
    ++signalsDelivered_;
    HFI_OBS_RECORD(trace_, obs::EventType::SignalDeliver, clock.nowNsFast(),
                   static_cast<std::uint64_t>(pid));
    return switchTo(pid);
}

int
Scheduler::yield()
{
    if (processes.empty())
        return -1;
    const int next = (current + 1) % static_cast<int>(processes.size());
    switchTo(next);
    return next;
}

} // namespace hfi::os
