#include "sfi/guard_page_backend.h"

#include "sfi/linear_memory.h"

namespace hfi::sfi
{

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::GuardPages: return "guard-pages";
      case BackendKind::BoundsCheck: return "bounds-check";
      case BackendKind::Mask: return "mask";
      case BackendKind::Hfi: return "hfi";
    }
    return "unknown";
}

GuardPageBackend::GuardPageBackend(vm::Mmu &mmu, GuardPageCosts costs,
                                   std::uint64_t guard_bytes)
    : mmu(mmu), costs_(costs), guardBytes(guard_bytes)
{
}

GuardPageBackend::~GuardPageBackend()
{
    if (live)
        destroy();
}

bool
GuardPageBackend::create(std::uint64_t initial_pages,
                         std::uint64_t max_pages)
{
    maxBytes = max_pages * kWasmPageSize;
    reservation = maxBytes + guardBytes;
    auto addr = mmu.mmapReserve(reservation, kWasmPageSize);
    if (!addr)
        return false;
    base = *addr;
    live = true;
    if (initial_pages > 0)
        grow(0, initial_pages);
    return true;
}

void
GuardPageBackend::destroy()
{
    if (!live)
        return;
    mmu.munmap(base);
    live = false;
    base = 0;
    reservation = 0;
}

void
GuardPageBackend::grow(std::uint64_t old_pages, std::uint64_t new_pages)
{
    // memory_grow flips the newly accessible pages from PROT_NONE to
    // read-write; this is the mprotect() whose fixed + shootdown +
    // per-page cost dominates §6.1's 10.92 s heap-growth measurement.
    const std::uint64_t old_bytes = old_pages * kWasmPageSize;
    const std::uint64_t new_bytes = new_pages * kWasmPageSize;
    if (new_bytes > old_bytes) {
        mmu.mprotect(base + old_bytes, new_bytes - old_bytes,
                     vm::PageProt::ReadWrite);
    }
}

AccessCheck
GuardPageBackend::checkAccess(std::uint64_t offset, std::uint32_t width,
                              bool write, const LinearMemory &mem)
{
    (void)write;
    // The Wasm compiler restricts accesses to u32 address + u32 offset,
    // so the effective offset is at most 2^33 - 2 and always lands inside
    // the reservation: either in accessible pages (proceed) or in
    // PROT_NONE pages (SIGSEGV). No instructions are executed to check.
    if (mem.inBounds(offset, width))
        return {AccessOutcome::Ok, offset};
    return {AccessOutcome::Trap, offset};
}

void
GuardPageBackend::enterSandbox()
{
    mmu.clock().tick(costs_.transitionCycles);
}

void
GuardPageBackend::exitSandbox()
{
    mmu.clock().tick(costs_.transitionCycles);
}

SteadyStateCosts
GuardPageBackend::steadyStateCosts() const
{
    SteadyStateCosts costs;
    costs.opPressureMilli = costs_.opPressureMilli;
    costs.loadExtraMilli = costs_.addressingMilli;
    costs.storeExtraMilli = costs_.addressingMilli;
    return costs;
}

} // namespace hfi::sfi
