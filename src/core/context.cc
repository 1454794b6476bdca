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
HfiContext::setRegion(unsigned n, const Region &region)
{
    charge(costs_.setRegionCycles);
    if (n >= kNumRegions || regionsLocked() || !regionStorable(n, region)) {
        msrExitReason = ExitReason::IllegalRegionUpdate;
        return HfiResult::Trap;
    }
    if (bank.enabled) {
        // Inside a hybrid sandbox region updates serialize to keep
        // in-flight memory operations correct (§4.3); code-region
        // updates additionally flush pending memory operations.
        charge(costs_.hybridRegionUpdateSerializeCycles);
        ++stats_.serializations;
        if (regionClassOf(n) == RegionClass::Code)
            charge(costs_.codeRegionFlushCycles);
    }
    bank.setRegion(n, region);
    ++stats_.regionUpdates;
    HFI_OBS_RECORD(trace_, obs::EventType::RegionSet, clock_.nowNsFast(), n);
    return HfiResult::Ok;
}

std::optional<Region>
HfiContext::getRegion(unsigned n)
{
    charge(costs_.getRegionCycles);
    if (n >= kNumRegions || regionsLocked()) {
        msrExitReason = ExitReason::IllegalRegionUpdate;
        return std::nullopt;
    }
    return bank.region(n);
}

HfiResult
HfiContext::clearRegion(unsigned n)
{
    charge(costs_.clearRegionCycles);
    if (n >= kNumRegions || regionsLocked()) {
        msrExitReason = ExitReason::IllegalRegionUpdate;
        return HfiResult::Trap;
    }
    bank.setRegion(n, EmptyRegion{});
    ++stats_.regionUpdates;
    HFI_OBS_RECORD(trace_, obs::EventType::RegionClear, clock_.nowNsFast(), n);
    return HfiResult::Ok;
}

HfiResult
HfiContext::clearAllRegions()
{
    charge(costs_.clearAllRegionsCycles);
    if (regionsLocked()) {
        msrExitReason = ExitReason::IllegalRegionUpdate;
        return HfiResult::Trap;
    }
    for (unsigned r = 0; r < kNumRegions; ++r)
        bank.setRegion(r, EmptyRegion{});
    ++stats_.regionUpdates;
    HFI_OBS_RECORD(trace_, obs::EventType::RegionClear, clock_.nowNsFast(),
                   kNumRegions);
    return HfiResult::Ok;
}

HfiResult
HfiContext::enter(const SandboxConfig &config)
{
    charge(costs_.enterCycles);
    if (config.isSerialized)
        serialize();

    if (config.switchOnExit) {
        // Preserve the trusted runtime's register bank so hfi_exit can
        // atomically switch back instead of disabling HFI (§4.5).
        shadow = bank;
        shadowValid = true;
        charge(costs_.switchBankCycles);
        ++stats_.bankSwitches;
    }

    bank.config = config;
    bank.enabled = true;
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
    lastExitSwitched_ = false;

    if (bank.enabled && bank.config.switchOnExit && shadowValid) {
        // Switch-on-exit: restore the runtime's bank; HFI stays enabled
        // inside the runtime's own (hybrid) sandbox, so no serialization
        // is required for Spectre safety (§3.4).
        bank = shadow;
        shadowValid = false;
        charge(costs_.switchBankCycles);
        ++stats_.bankSwitches;
        msrExitReason = ExitReason::HfiExit;
        lastExitSwitched_ = true;
        HFI_OBS_RECORD(trace_, obs::EventType::HfiExit, clock_.nowNsFast(), 0, 1);
        return 0;
    }

    if (bank.config.isSerialized)
        serialize();

    const bool was_native = bank.enabled && !bank.config.isHybrid;
    bank.enabled = false;
    msrExitReason = ExitReason::HfiExit;
    // Native sandboxes always transfer control to the installed exit
    // handler; hybrid exits fall through to the code after hfi_exit
    // unless a handler was explicitly installed (§3.3.2).
    const VAddr handler =
        was_native || bank.config.exitHandler ? bank.config.exitHandler : 0;
    HFI_OBS_RECORD(trace_, obs::EventType::HfiExit, clock_.nowNsFast(), handler,
                   0);
    return handler;
}

HfiResult
HfiContext::reenter()
{
    charge(costs_.reenterCycles);
    if (!lastConfigValid || bank.enabled)
        return HfiResult::Trap;
    return enter(lastConfig);
}

std::optional<VAddr>
HfiContext::onSyscall()
{
    if (!bank.enabled)
        return std::nullopt;
    // §4.4: one extra microcode cycle checks the is-hybrid flag.
    charge(costs_.syscallCheckCycles);
    if (bank.config.isHybrid)
        return std::nullopt; // trusted code: syscalls go through

    // Native sandbox: convert the syscall into a jump to the exit
    // handler. HFI mode is disabled atomically with the redirect.
    charge(costs_.syscallRedirectCycles);
    if (bank.config.isSerialized)
        serialize();
    bank.enabled = false;
    msrExitReason = ExitReason::Syscall;
    ++stats_.syscallRedirects;
    HFI_OBS_RECORD(trace_, obs::EventType::SyscallRedirect, clock_.nowNsFast(),
                   bank.config.exitHandler);
    return bank.config.exitHandler;
}

void
HfiContext::onFault(ExitReason reason)
{
    bank.enabled = false;
    shadowValid = false;
    msrExitReason = reason;
    ++stats_.faults;
    HFI_OBS_RECORD(trace_, obs::EventType::HfiFault, clock_.nowNsFast(),
                   static_cast<std::uint64_t>(reason));
}

ExitReason
HfiContext::readExitReasonMsr()
{
    charge(costs_.readMsrCycles);
    return msrExitReason;
}

HfiRegisterFile
HfiContext::xsave()
{
    charge(costs_.xsaveHfiCycles);
    return bank;
}

HfiResult
HfiContext::xrstor(const HfiRegisterFile &file)
{
    charge(costs_.xrstorHfiCycles);
    if (bank.enabled && !bank.config.isHybrid) {
        // §3.3.3: allowing a native sandbox to rewrite the HFI registers
        // would break sandboxing, so the instruction traps.
        onFault(ExitReason::IllegalXrstor);
        return HfiResult::Trap;
    }
    bank = file;
    return HfiResult::Ok;
}

void
HfiContext::kernelXrstor(const HfiRegisterFile &file)
{
    charge(costs_.xrstorHfiCycles);
    bank = file;
    HFI_OBS_RECORD(trace_, obs::EventType::KernelXrstor, clock_.nowNsFast(),
                   file.enabled);
}

} // namespace hfi::core
