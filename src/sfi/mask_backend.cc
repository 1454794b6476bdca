#include "sfi/mask_backend.h"

#include <algorithm>
#include <bit>

#include "sfi/linear_memory.h"

namespace hfi::sfi
{

MaskBackend::MaskBackend(vm::Mmu &mmu, MaskCosts costs)
    : mmu(mmu), costs_(costs)
{
}

MaskBackend::~MaskBackend()
{
    if (live)
        destroy();
}

bool
MaskBackend::create(std::uint64_t initial_pages, std::uint64_t max_pages)
{
    maxBytes = std::bit_ceil(max_pages * kWasmPageSize);
    mask_ = maxBytes - 1;
    auto addr = mmu.mmapReserve(maxBytes, maxBytes);
    if (!addr)
        return false;
    base = *addr;
    live = true;
    if (initial_pages > 0)
        grow(0, initial_pages);
    return true;
}

void
MaskBackend::destroy()
{
    if (!live)
        return;
    mmu.munmap(base);
    live = false;
    base = 0;
}

void
MaskBackend::grow(std::uint64_t old_pages, std::uint64_t new_pages)
{
    const std::uint64_t old_bytes = old_pages * kWasmPageSize;
    const std::uint64_t new_bytes = new_pages * kWasmPageSize;
    if (new_bytes > old_bytes) {
        mmu.mprotect(base + old_bytes, new_bytes - old_bytes,
                     vm::PageProt::ReadWrite);
    }
}

AccessCheck
MaskBackend::checkAccess(std::uint64_t offset, std::uint32_t width,
                         bool write, const LinearMemory &mem)
{
    (void)write;
    if (mem.inBounds(offset, width))
        return {AccessOutcome::Ok, offset};
    // No trap: the AND forces the address into the accessible region.
    // We mask to the largest power of two not exceeding the accessible
    // size, and pull an access that would straddle its end back by the
    // overhang, so the wrapped access (including its width) always lands
    // on mapped memory — the silent-corruption behaviour §2 describes.
    // Only a memory too small to hold the access at all faults.
    const std::uint64_t span = std::bit_floor(mem.size());
    if (width > span)
        return {AccessOutcome::Trap, offset};
    const std::uint64_t at = offset & mask_ & (span - 1);
    return {AccessOutcome::Wrapped, std::min<std::uint64_t>(at, span - width)};
}

void
MaskBackend::enterSandbox()
{
    mmu.clock().tick(costs_.transitionCycles);
}

void
MaskBackend::exitSandbox()
{
    mmu.clock().tick(costs_.transitionCycles);
}

SteadyStateCosts
MaskBackend::steadyStateCosts() const
{
    SteadyStateCosts costs;
    costs.loadExtraMilli = costs_.maskMilli;
    costs.storeExtraMilli = costs_.maskMilli;
    costs.opPressureMilli = costs_.opPressureMilli;
    return costs;
}

} // namespace hfi::sfi
