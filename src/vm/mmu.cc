#include "vm/mmu.h"

#include <cassert>
#include <iterator>

namespace hfi::vm
{

Mmu::Mmu(VirtualClock &clock, unsigned va_bits)
    : clock_(clock), space(va_bits)
{
}

std::optional<VAddr>
Mmu::mmap(std::uint64_t size, std::uint64_t align)
{
    ++stats_.mmapCalls;
    charge(kMmuCosts.syscallFixedNs + kMmuCosts.mmapReserveNs);
    return space.reserve(alignUp(size, kPageSize), align);
}

bool
Mmu::munmap(VAddr addr)
{
    ++stats_.munmapCalls;
    charge(kMmuCosts.syscallFixedNs + kMmuCosts.munmapFixedNs +
           kMmuCosts.munmapShootdownNs);
    auto size = space.rangeAt(addr);
    if (!size || !space.release(addr))
        return false;
    discard(addr, addr + *size);
    return true;
}

void
Mmu::mprotect(VAddr addr, std::uint64_t size)
{
    ++stats_.mprotectCalls;
    const std::uint64_t pages =
        (alignUp(addr + size, kPageSize) - alignDown(addr, kPageSize)) /
        kPageSize;
    charge(kMmuCosts.syscallFixedNs + kMmuCosts.mprotectFixedNs +
           kMmuCosts.mprotectShootdownNs +
           kMmuCosts.mprotectPerPageNs * static_cast<double>(pages));
}

void
Mmu::madviseDontneed(VAddr addr, std::uint64_t size)
{
    ++stats_.madviseCalls;
    const VAddr start = alignDown(addr, kPageSize);
    const VAddr end = alignUp(addr + size, kPageSize);
    // The kernel's zap walk visits resident pages individually but skips
    // empty page-table subtrees at PMD (2 MiB) granularity.
    constexpr std::uint64_t pmd_size = 2 * 1024 * 1024;
    const std::uint64_t pmds =
        (alignUp(end, pmd_size) - alignDown(start, pmd_size)) / pmd_size;
    const std::uint64_t discarded = discard(start, end);
    stats_.pagesDiscarded += discarded;
    charge(kMmuCosts.syscallFixedNs + kMmuCosts.madviseFixedNs +
           kMmuCosts.madvisePerResidentPageNs *
               static_cast<double>(discarded) +
           kMmuCosts.madvisePerWalkedPmdNs * static_cast<double>(pmds));
}

void
Mmu::access(VAddr addr, std::uint64_t size)
{
    assert(space.isReserved(addr) && space.isReserved(addr + size - 1));
    // A single access may straddle a page boundary: fault in every page
    // it covers.
    const VAddr last = (addr + size - 1) / kPageSize;
    for (VAddr page = addr / kPageSize; page <= last; ++page) {
        if (resident.insert(page).second) {
            ++stats_.pageFaults;
            charge(kMmuCosts.pageFaultNs);
        }
    }
}

std::uint64_t
Mmu::discard(VAddr start, VAddr end)
{
    auto first = resident.lower_bound(start / kPageSize);
    auto last = resident.lower_bound(end / kPageSize);
    const auto count = static_cast<std::uint64_t>(std::distance(first, last));
    resident.erase(first, last);
    return count;
}

} // namespace hfi::vm
