#include "vm/mmu.h"

namespace hfi::vm
{

Mmu::Mmu(VirtualClock &clock, unsigned va_bits, MmuCostParams params)
    : clock_(clock), space(va_bits), params_(params)
{
}

std::optional<VAddr>
Mmu::mmap(std::uint64_t size, PageProt prot, std::uint64_t align)
{
    ++stats_.mmapCalls;
    charge(params_.syscallFixedNs + params_.mmapReserveNs);
    size = alignUp(size, kPageSize);
    auto base = space.reserve(size, align);
    if (base)
        table.map(*base, size, prot);
    return base;
}

bool
Mmu::munmap(VAddr addr)
{
    ++stats_.munmapCalls;
    charge(params_.syscallFixedNs + params_.munmapFixedNs +
           params_.munmapShootdownNs);
    auto size = space.rangeAt(addr);
    if (!size || !space.release(addr))
        return false;
    table.unmap(addr, *size);
    return true;
}

void
Mmu::mprotect(VAddr addr, std::uint64_t size, PageProt prot)
{
    ++stats_.mprotectCalls;
    const std::uint64_t pages =
        (alignUp(addr + size, kPageSize) - alignDown(addr, kPageSize)) /
        kPageSize;
    charge(params_.syscallFixedNs + params_.mprotectFixedNs +
           params_.mprotectShootdownNs +
           params_.mprotectPerPageNs * static_cast<double>(pages));
    table.protect(alignDown(addr, kPageSize), pages * kPageSize, prot);
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
    const std::uint64_t discarded = table.discard(start, end - start);
    stats_.pagesDiscarded += discarded;
    charge(params_.syscallFixedNs + params_.madviseFixedNs +
           params_.madvisePerResidentPageNs *
               static_cast<double>(discarded) +
           params_.madvisePerWalkedPmdNs * static_cast<double>(pmds));
}

AccessResult
Mmu::access(VAddr addr, std::uint64_t size, bool write)
{
    // A single access may straddle a page boundary; check both ends.
    for (VAddr probe : {addr, addr + size - 1}) {
        const PageProt prot = table.protectionAt(probe);
        if (prot == PageProt::None)
            return AccessResult::NotMapped;
        if (write ? !protWritable(prot) : !protReadable(prot))
            return AccessResult::BadPermission;
        if (!table.isResident(probe)) {
            ++stats_.pageFaults;
            charge(params_.pageFaultNs);
            table.touch(probe);
        }
        if (addr / kPageSize == (addr + size - 1) / kPageSize)
            break;
    }
    return AccessResult::Ok;
}

AccessResult
Mmu::fetch(VAddr addr)
{
    const PageProt prot = table.protectionAt(addr);
    if (prot == PageProt::None)
        return AccessResult::NotMapped;
    if (!protExecutable(prot))
        return AccessResult::BadPermission;
    if (!table.isResident(addr)) {
        ++stats_.pageFaults;
        charge(params_.pageFaultNs);
        table.touch(addr);
    }
    return AccessResult::Ok;
}

} // namespace hfi::vm
