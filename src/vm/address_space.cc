#include "vm/address_space.h"

#include <algorithm>

namespace hfi::vm
{

AddressSpace::AddressSpace(unsigned va_bits)
    : bits(va_bits),
      base(1ULL << 20),
      limit(1ULL << va_bits)
{
}

std::optional<VAddr>
AddressSpace::reserve(std::uint64_t size, std::uint64_t align)
{
    if (size == 0)
        return std::nullopt;
    size = alignUp(size, kPageSize);

    VAddr candidate = alignUp(base, align);
    if (!hasHoles) {
        // Fast path: nothing was ever released below the high-water
        // mark, so first fit is the bump allocator.
        candidate = alignUp(std::max(base, highWater), align);
    } else {
        for (const auto &[start, len] : ranges) {
            if (candidate + size <= start)
                break;
            if (start + len > candidate)
                candidate = alignUp(start + len, align);
        }
        if (candidate >= highWater)
            hasHoles = false; // the scan found no usable hole
    }
    if (candidate + size > limit || candidate + size < candidate)
        return std::nullopt;

    ranges.emplace(candidate, size);
    reserved_ += size;
    highWater = std::max(highWater, candidate + size);
    return candidate;
}

bool
AddressSpace::release(VAddr addr)
{
    auto it = ranges.find(addr);
    if (it == ranges.end())
        return false;
    reserved_ -= it->second;
    ranges.erase(it);
    hasHoles = true;
    return true;
}

std::optional<std::uint64_t>
AddressSpace::rangeAt(VAddr base) const
{
    auto it = ranges.find(base);
    if (it == ranges.end())
        return std::nullopt;
    return it->second;
}

bool
AddressSpace::isReserved(VAddr addr) const
{
    auto it = ranges.upper_bound(addr);
    if (it == ranges.begin())
        return false;
    auto prev = std::prev(it);
    return addr >= prev->first && addr < prev->first + prev->second;
}

} // namespace hfi::vm
