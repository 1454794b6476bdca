#include "sfi/bounds_check_backend.h"

#include "sfi/linear_memory.h"

namespace hfi::sfi
{

BoundsCheckBackend::BoundsCheckBackend(vm::Mmu &mmu, BoundsCheckCosts costs)
    : mmu(mmu), costs_(costs)
{
}

BoundsCheckBackend::~BoundsCheckBackend()
{
    if (live)
        destroy();
}

bool
BoundsCheckBackend::create(std::uint64_t initial_pages,
                           std::uint64_t max_pages)
{
    maxBytes = max_pages * kWasmPageSize;
    auto addr = mmu.mmapReserve(maxBytes, kWasmPageSize);
    if (!addr)
        return false;
    base = *addr;
    live = true;
    if (initial_pages > 0)
        grow(0, initial_pages);
    return true;
}

void
BoundsCheckBackend::destroy()
{
    if (!live)
        return;
    mmu.munmap(base);
    live = false;
    base = 0;
}

void
BoundsCheckBackend::grow(std::uint64_t old_pages, std::uint64_t new_pages)
{
    // The software bound variable is updated for free, but the new pages
    // still need read-write backing before they can be touched.
    const std::uint64_t old_bytes = old_pages * kWasmPageSize;
    const std::uint64_t new_bytes = new_pages * kWasmPageSize;
    if (new_bytes > old_bytes) {
        mmu.mprotect(base + old_bytes, new_bytes - old_bytes,
                     vm::PageProt::ReadWrite);
    }
}

AccessCheck
BoundsCheckBackend::checkAccess(std::uint64_t offset, std::uint32_t width,
                                bool write, const LinearMemory &mem)
{
    (void)write;
    // The emitted compare+branch: trap stub when out of bounds. The
    // cycle cost of the check itself is charged via steadyStateCosts on
    // the Sandbox hot path.
    if (mem.inBounds(offset, width))
        return {AccessOutcome::Ok, offset};
    return {AccessOutcome::Trap, offset};
}

void
BoundsCheckBackend::enterSandbox()
{
    mmu.clock().tick(costs_.transitionCycles);
}

void
BoundsCheckBackend::exitSandbox()
{
    mmu.clock().tick(costs_.transitionCycles);
}

SteadyStateCosts
BoundsCheckBackend::steadyStateCosts() const
{
    SteadyStateCosts costs;
    costs.loadExtraMilli = costs_.checkMilli + costs_.addressingMilli;
    costs.storeExtraMilli = costs_.checkMilli + costs_.addressingMilli;
    costs.opPressureMilli = costs_.opPressureMilli;
    return costs;
}

} // namespace hfi::sfi
