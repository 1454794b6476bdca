#include "mpk/mpk.h"

namespace hfi::mpk
{

MpkDomainManager::MpkDomainManager(vm::Mmu &mmu) : mmu(mmu)
{
    keyUsed[0] = true; // the default key
}

std::optional<unsigned>
MpkDomainManager::pkeyAlloc()
{
    mmu.clock().tick(mmu.clock().nsToCycles(kMpkCosts.pkeySyscallNs));
    for (unsigned k = 1; k < kNumPkeys; ++k) {
        if (!keyUsed[k]) {
            keyUsed[k] = true;
            ++allocated;
            return k;
        }
    }
    return std::nullopt;
}

bool
MpkDomainManager::pkeyFree(unsigned key)
{
    mmu.clock().tick(mmu.clock().nsToCycles(kMpkCosts.pkeySyscallNs));
    if (key == 0 || key >= kNumPkeys || !keyUsed[key])
        return false;
    keyUsed[key] = false;
    --allocated;
    return true;
}

bool
MpkDomainManager::pkeyMprotect(vm::VAddr addr, std::uint64_t size,
                               unsigned key)
{
    if (key >= kNumPkeys || !keyUsed[key])
        return false;
    // Same kernel path as mprotect: VMA split + PTE rewrite + shootdown.
    mmu.mprotect(addr, size, vm::PageProt::ReadWrite);
    const vm::VAddr first = vm::alignDown(addr, vm::kPageSize) /
                            vm::kPageSize;
    const vm::VAddr last = vm::alignUp(addr + size, vm::kPageSize) /
                           vm::kPageSize;
    for (vm::VAddr page = first; page < last; ++page) {
        if (key == 0)
            tags.erase(page);
        else
            tags[page] = key;
    }
    return true;
}

void
MpkDomainManager::wrpkru(const std::array<PkeyRights, kNumPkeys> &rights)
{
    mmu.clock().tick(kMpkCosts.wrpkruCycles);
    pkru = rights;
    ++wrpkrus;
}

void
MpkDomainManager::switchToDomain(unsigned key)
{
    std::array<PkeyRights, kNumPkeys> rights;
    for (unsigned k = 0; k < kNumPkeys; ++k) {
        const bool open = k == 0 || k == key;
        rights[k] = PkeyRights{!open, !open};
    }
    wrpkru(rights);
}

bool
MpkDomainManager::checkAccess(vm::VAddr addr, bool write) const
{
    const unsigned key = keyAt(addr);
    const PkeyRights &r = pkru[key];
    if (r.accessDisable)
        return false;
    if (write && r.writeDisable)
        return false;
    return true;
}

unsigned
MpkDomainManager::keyAt(vm::VAddr addr) const
{
    const auto it = tags.find(addr / vm::kPageSize);
    return it == tags.end() ? 0 : it->second;
}

} // namespace hfi::mpk
