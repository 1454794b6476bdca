#include "core/hfi_state.h"

namespace hfi::core
{

HfiOutcome
HfiState::enter(const SandboxConfig &config)
{
    HfiOutcome out;
    out.serializes = config.isSerialized;
    if (config.switchOnExit) {
        shadow = bank;
        shadowValid = true;
        out.switchedBanks = true;
    }
    bank.config = config;
    bank.enabled = true;
    return out;
}

HfiOutcome
HfiState::exit()
{
    HfiOutcome out;
    msr = ExitReason::HfiExit;
    if (bank.enabled && bank.config.switchOnExit && shadowValid) {
        // HFI stays enabled inside the runtime's own (hybrid) sandbox,
        // so even a speculative hfi_exit leaves execution checked: no
        // serialization is required for Spectre safety (§3.4).
        bank = shadow;
        shadowValid = false;
        out.switchedBanks = true;
        return out;
    }
    out.serializes = bank.config.isSerialized;
    out.handler = bank.config.exitHandler;
    bank.enabled = false;
    return out;
}

HfiOutcome
HfiState::syscall()
{
    HfiOutcome out;
    if (!regionsLocked())
        return out; // HFI off or trusted hybrid code: the syscall runs
    out.serializes = bank.config.isSerialized;
    if (bank.config.exitHandler == 0) {
        // Nowhere to redirect to: the syscall must not run unsandboxed.
        out.trap = msr = ExitReason::Syscall;
        return out;
    }
    bank.enabled = false;
    msr = ExitReason::Syscall;
    out.handler = bank.config.exitHandler;
    return out;
}

HfiOutcome
HfiState::regionAccess(unsigned n)
{
    HfiOutcome out;
    if (n >= kNumRegions || regionsLocked())
        out.trap = msr = ExitReason::IllegalRegionUpdate;
    return out;
}

HfiOutcome
HfiState::setRegion(unsigned n, const Region &region)
{
    HfiOutcome out = regionAccess(n);
    if (out.trap == ExitReason::None && !regionStorable(n, region))
        out.trap = msr = ExitReason::IllegalRegionUpdate;
    if (out.trap != ExitReason::None)
        return out;
    bank.setRegion(n, region);
    // Inside a hybrid sandbox region updates serialize to keep
    // in-flight memory operations correct (§4.3).
    out.serializes = bank.enabled;
    return out;
}

HfiOutcome
HfiState::clearAllRegions()
{
    HfiOutcome out = regionAccess(kFirstCodeRegion); // only the lock traps
    if (out.trap != ExitReason::None)
        return out;
    for (unsigned n = 0; n < kNumRegions; ++n)
        bank.setRegion(n, EmptyRegion{});
    out.serializes = bank.enabled;
    return out;
}

void
HfiState::trap(ExitReason reason)
{
    bank.enabled = false;
    shadowValid = false;
    msr = reason;
}

} // namespace hfi::core
