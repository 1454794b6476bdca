#include "core/context.h"

#include "core/checker.h"

namespace hfi::core
{

HfiContext::HfiContext(vm::VirtualClock &clock, HfiCostParams costs)
    : clock_(clock), costs_(costs)
{
}

void
HfiContext::serialize()
{
    charge(costs_.serializeCycles);
    ++stats_.serializations;
}

HfiResult
HfiContext::regionUpdated(const HfiOutcome &out, unsigned n,
                          [[maybe_unused]] obs::EventType event)
{
    if (out.trap != ExitReason::None)
        return HfiResult::Trap;
    if (out.serializes) {
        // Code-region updates (n == kNumRegions: all registers)
        // additionally flush pending memory operations.
        charge(costs_.hybridRegionUpdateSerializeCycles);
        ++stats_.serializations;
        if (n == kNumRegions || regionKindOf(n) == RegionKind::Code)
            charge(costs_.codeRegionFlushCycles);
    }
    ++stats_.regionUpdates;
    HFI_OBS_RECORD(trace_, event, clock_.nowNsFast(), n);
    return HfiResult::Ok;
}

HfiResult
HfiContext::setRegion(unsigned n, const Region &region)
{
    charge(costs_.setRegionCycles);
    return regionUpdated(state_.setRegion(n, region), n,
                         obs::EventType::RegionSet);
}

std::optional<Region>
HfiContext::getRegion(unsigned n)
{
    charge(costs_.getRegionCycles);
    if (state_.regionAccess(n).trap != ExitReason::None)
        return std::nullopt;
    return state_.bank.region(n);
}

HfiResult
HfiContext::clearRegion(unsigned n)
{
    charge(costs_.clearRegionCycles);
    return regionUpdated(state_.clearRegion(n), n,
                         obs::EventType::RegionClear);
}

HfiResult
HfiContext::clearAllRegions()
{
    charge(costs_.clearAllRegionsCycles);
    return regionUpdated(state_.clearAllRegions(), kNumRegions,
                         obs::EventType::RegionClear);
}

HfiResult
HfiContext::enter(const SandboxConfig &config)
{
    charge(costs_.enterCycles);
    const HfiOutcome out = state_.enter(config);
    if (out.serializes)
        serialize();
    if (out.switchedBanks) {
        charge(costs_.switchBankCycles);
        ++stats_.bankSwitches;
    }
    lastConfig = config;
    lastConfigValid = true;
    ++stats_.enters;
    HFI_OBS_RECORD(trace_, obs::EventType::HfiEnter, clock_.nowNsFast(),
                   config.isHybrid, config.switchOnExit);
    return HfiResult::Ok;
}

VAddr
HfiContext::exit()
{
    charge(costs_.exitCycles);
    ++stats_.exits;
    const HfiOutcome out = state_.exit();
    lastExitSwitched_ = out.switchedBanks;
    if (out.switchedBanks) {
        charge(costs_.switchBankCycles);
        ++stats_.bankSwitches;
    }
    if (out.serializes)
        serialize();
    HFI_OBS_RECORD(trace_, obs::EventType::HfiExit, clock_.nowNsFast(),
                   out.handler, out.switchedBanks);
    return out.handler;
}

HfiResult
HfiContext::reenter()
{
    charge(costs_.reenterCycles);
    if (!lastConfigValid || state_.bank.enabled)
        return HfiResult::Trap;
    return enter(lastConfig);
}

std::optional<VAddr>
HfiContext::onSyscall()
{
    if (!state_.bank.enabled)
        return std::nullopt;
    // §4.4: one extra microcode cycle checks the is-hybrid flag.
    charge(costs_.syscallCheckCycles);
    const HfiOutcome out = state_.syscall();
    if (out.handler == 0 && out.trap == ExitReason::None)
        return std::nullopt; // trusted code: syscalls go through

    charge(costs_.syscallRedirectCycles);
    if (out.serializes)
        serialize();
    ++stats_.syscallRedirects;
    HFI_OBS_RECORD(trace_, obs::EventType::SyscallRedirect, clock_.nowNsFast(),
                   out.handler);
    if (out.trap != ExitReason::None)
        onFault(out.trap);
    return out.handler;
}

void
HfiContext::onFault(ExitReason reason)
{
    state_.trap(reason);
    ++stats_.faults;
    HFI_OBS_RECORD(trace_, obs::EventType::HfiFault, clock_.nowNsFast(),
                   static_cast<std::uint64_t>(reason));
}

ExitReason
HfiContext::readExitReasonMsr()
{
    charge(costs_.readMsrCycles);
    return state_.msr;
}

HfiRegisterFile
HfiContext::xsave()
{
    charge(costs_.xsaveHfiCycles);
    return state_.bank;
}

HfiResult
HfiContext::xrstor(const HfiRegisterFile &file)
{
    charge(costs_.xrstorHfiCycles);
    if (state_.regionsLocked()) {
        // §3.3.3: allowing a native sandbox to rewrite the HFI registers
        // would break sandboxing, so the instruction traps.
        onFault(ExitReason::IllegalXrstor);
        return HfiResult::Trap;
    }
    state_.bank = file;
    return HfiResult::Ok;
}

void
HfiContext::kernelXrstor(const HfiRegisterFile &file)
{
    charge(costs_.xrstorHfiCycles);
    state_.bank = file;
    HFI_OBS_RECORD(trace_, obs::EventType::KernelXrstor, clock_.nowNsFast(),
                   file.enabled);
}

} // namespace hfi::core
