#include "sfi/hfi_backend.h"

#include "sfi/linear_memory.h"

namespace hfi::sfi
{

HfiBackend::HfiBackend(vm::Mmu &mmu, core::HfiContext &ctx,
                       HfiBackendConfig config)
    : mmu(mmu), ctx(ctx), config_(config)
{
}

HfiBackend::~HfiBackend()
{
    if (live)
        destroy();
}

void
HfiBackend::programRegion(std::uint64_t accessible_bytes)
{
    core::ExplicitDataRegion region;
    region.baseAddress = base;
    region.bound = accessible_bytes; // multiples of 64 KiB: large-region ok
    region.permRead = true;
    region.permWrite = true;
    region.isLargeRegion = true;
    ctx.setRegion(core::kFirstExplicitRegion, region);
    accessibleBytes = accessible_bytes;
}

bool
HfiBackend::create(std::uint64_t initial_pages, std::uint64_t max_pages)
{
    maxBytes = max_pages * kWasmPageSize;
    // No guard region: HFI reserves exactly the heap, read-write, with
    // lazy backing. Enforcement comes from the region bound, not page
    // permissions, so growth never calls mprotect.
    auto addr = mmu.mmap(maxBytes, vm::PageProt::ReadWrite, kWasmPageSize);
    if (!addr)
        return false;
    base = *addr;
    live = true;
    programRegion(initial_pages * kWasmPageSize);
    return true;
}

void
HfiBackend::destroy()
{
    if (!live)
        return;
    ctx.clearRegion(core::kFirstExplicitRegion);
    mmu.munmap(base);
    live = false;
    base = 0;
}

void
HfiBackend::grow(std::uint64_t old_pages, std::uint64_t new_pages)
{
    (void)old_pages;
    // §6.1: "HFI can just update a region's bound registers" — a single
    // hfi_set_region replaces the guard-page scheme's mprotect.
    programRegion(new_pages * kWasmPageSize);
}

const core::FlatRegionSlot &
HfiBackend::heapSlot() const
{
    return ctx.registerFile().flat(core::kFirstExplicitRegion);
}

AccessCheck
HfiBackend::checkAccess(std::uint64_t offset, std::uint32_t width,
                        bool write, const LinearMemory &mem)
{
    (void)mem;
    core::HmovOperands ops;
    ops.index = static_cast<std::int64_t>(offset);
    ops.scale = 1;
    ops.displacement = 0;
    ops.width = width;
    const core::HmovResult res =
        core::AccessChecker::checkHmov(ctx, 0, ops, write);
    if (res.ok)
        return {AccessOutcome::Ok, offset};
    lastTrap = res.reason;
    return {AccessOutcome::Trap, offset};
}

void
HfiBackend::rebindRegions()
{
    // Warm dispatch on a core whose register file was context-switched
    // since this instance last ran: reload the heap region descriptor
    // before the (region-locking) hfi_enter. One hfi_set_region, the
    // §6.1 "just update the bound registers" cost.
    if (live)
        programRegion(accessibleBytes);
}

void
HfiBackend::enterSandbox()
{
    // Each transition re-loads the region metadata from memory into the
    // HFI registers (§6.4.2) and enters a hybrid sandbox, optionally
    // serialized or via switch-on-exit (§3.4).
    programRegion(accessibleBytes);
    core::SandboxConfig sandbox;
    sandbox.isHybrid = true;
    sandbox.isSerialized = config_.serialized && !config_.switchOnExit;
    sandbox.switchOnExit = config_.switchOnExit;
    ctx.enter(sandbox);
}

void
HfiBackend::exitSandbox()
{
    ctx.exit();
}

SteadyStateCosts
HfiBackend::steadyStateCosts() const
{
    SteadyStateCosts costs;
    // Region checks run in parallel with the dtb lookup: zero extra
    // cycles per access, no pinned registers. Only the icache tax from
    // hmov's longer encodings remains, scaled by workload sensitivity.
    costs.icacheMilliPerAccess = kIcacheMilliPerAccess;
    costs.loadExtraMilli = config_.addressingMilli;
    costs.storeExtraMilli = config_.addressingMilli;
    return costs;
}

} // namespace hfi::sfi
