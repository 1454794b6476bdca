#include "sfi/software_backend.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sfi/linear_memory.h"

namespace hfi::sfi
{

SoftwareCosts
paperCosts(BackendKind kind)
{
    // Guard pages check nothing per access (in steady-state SPEC-style
    // code the out-of-order core hides the base add: Fig 3 shows guard
    // pages ~= HFI) and pin one register, §6.1's 2.25%. A bounds
    // check's compare+branch is two µops, part hidden by the out-of-
    // order window: 1200 reproduces Fig 3's 18.7-48.3% spread over
    // kernels of differing access density; base + bound pin two
    // registers, §6.1's 2.40%. A mask is one AND and one register.
    switch (kind) {
      case BackendKind::GuardPages: return {12, 0, 23};
      case BackendKind::BoundsCheck: return {12, 1200, 24};
      case BackendKind::Mask: return {12, 600, 23};
      case BackendKind::Hfi: break;
    }
    throw std::invalid_argument("paperCosts: not a software backend");
}

std::uint64_t
footprintBytes(BackendKind kind, std::uint64_t heap_bytes)
{
    switch (kind) {
      case BackendKind::GuardPages: return heap_bytes + kGuardBytes;
      case BackendKind::Mask: return std::bit_ceil(heap_bytes);
      case BackendKind::BoundsCheck:
      case BackendKind::Hfi: break;
    }
    return heap_bytes;
}

SoftwareBackend::SoftwareBackend(vm::Mmu &mmu, BackendKind kind)
    : SoftwareBackend(mmu, kind, paperCosts(kind))
{
}

SoftwareBackend::SoftwareBackend(vm::Mmu &mmu, BackendKind kind,
                                 SoftwareCosts costs)
    : mmu(mmu), kind_(kind), costs_(costs)
{
    if (kind == BackendKind::Hfi)
        throw std::invalid_argument("SoftwareBackend: HFI is not software");
}

SoftwareBackend::~SoftwareBackend()
{
    if (live)
        destroy();
}

bool
SoftwareBackend::create(std::uint64_t initial_pages, std::uint64_t max_pages)
{
    reservation = footprintBytes(kind_, max_pages * kWasmPageSize);
    // The mask's power-of-two region is aligned to itself, so one AND
    // keeps an address inside it.
    const std::uint64_t align =
        kind_ == BackendKind::Mask ? reservation : kWasmPageSize;
    auto addr = mmu.mmapReserve(reservation, align);
    if (!addr)
        return false;
    base = *addr;
    live = true;
    if (initial_pages > 0)
        grow(0, initial_pages);
    return true;
}

void
SoftwareBackend::destroy()
{
    if (!live)
        return;
    mmu.munmap(base);
    live = false;
    base = 0;
    reservation = 0;
}

void
SoftwareBackend::grow(std::uint64_t old_pages, std::uint64_t new_pages)
{
    // memory_grow flips the newly accessible pages from PROT_NONE to
    // read-write; this is the mprotect() whose fixed + shootdown +
    // per-page cost dominates §6.1's 10.92 s heap-growth measurement.
    // (A bounds check's bound variable updates for free, but its pages
    // need the same backing.)
    const std::uint64_t old_bytes = old_pages * kWasmPageSize;
    const std::uint64_t new_bytes = new_pages * kWasmPageSize;
    if (new_bytes > old_bytes) {
        mmu.mprotect(base + old_bytes, new_bytes - old_bytes,
                     vm::PageProt::ReadWrite);
    }
}

AccessCheck
SoftwareBackend::checkAccess(std::uint64_t offset, std::uint32_t width,
                             bool write, const LinearMemory &mem)
{
    (void)write;
    // Guard pages: the Wasm compiler restricts accesses to u32 address
    // + u32 offset, so the effective offset always lands inside the
    // reservation, in accessible pages or in PROT_NONE ones (SIGSEGV).
    // Bounds checks: the emitted compare+branch to a trap stub. Either
    // way the rule is the accessible size; the cycles are charged on
    // the Sandbox hot path (steadyStateCosts).
    if (mem.inBounds(offset, width))
        return {AccessOutcome::Ok, offset};
    if (kind_ != BackendKind::Mask)
        return {AccessOutcome::Trap, offset};
    // Mask: no trap, the AND forces the address into the accessible
    // region. We mask to the largest power of two not exceeding the
    // accessible size (which divides the power-of-two reservation, so
    // this is also the reservation's mask), and pull an access that
    // would straddle its end back by the overhang, so the wrapped
    // access (including its width) always lands on mapped memory — the
    // silent-corruption behaviour §2 describes. Only a memory too small
    // to hold the access at all faults.
    const std::uint64_t span = std::bit_floor(mem.size());
    if (width > span)
        return {AccessOutcome::Trap, offset};
    const std::uint64_t at = offset & (span - 1);
    return {AccessOutcome::Wrapped, std::min<std::uint64_t>(at, span - width)};
}

void
SoftwareBackend::enterSandbox()
{
    mmu.clock().tick(costs_.transitionCycles);
}

void
SoftwareBackend::exitSandbox()
{
    mmu.clock().tick(costs_.transitionCycles);
}

SteadyStateCosts
SoftwareBackend::steadyStateCosts() const
{
    SteadyStateCosts costs;
    costs.loadExtraMilli = costs_.accessMilli;
    costs.storeExtraMilli = costs_.accessMilli;
    costs.opPressureMilli = costs_.opPressureMilli;
    return costs;
}

} // namespace hfi::sfi
