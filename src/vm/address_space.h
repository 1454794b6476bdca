/**
 * @file
 * Virtual address-space reservation bookkeeping.
 *
 * Models the finite user-level virtual address space that §2 of the paper
 * identifies as the scaling bottleneck for guard-page-based Wasm: each
 * sandbox reserves 8 GiB (4 GiB heap + 4 GiB guard) even when it uses a
 * few megabytes. The AddressSpace tracks reservations like the kernel's
 * VMA tree so we can reproduce the §6.3.2 scalability experiment.
 */

#ifndef HFI_VM_ADDRESS_SPACE_H
#define HFI_VM_ADDRESS_SPACE_H

#include <cstdint>
#include <map>
#include <optional>

namespace hfi::vm
{

/** A virtual address. */
using VAddr = std::uint64_t;

/** Size of a (small) page: 4 KiB. */
constexpr std::uint64_t kPageSize = 4096;

/** Round @p v down to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignDown(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/** Round @p v up to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/**
 * Tracks virtual-memory reservations within a process address space.
 *
 * Reservations are kept in an ordered map keyed by start address, exactly
 * one entry per disjoint reserved range. Allocation uses a first-fit
 * search from the bottom of the usable range.
 */
class AddressSpace
{
  public:
    /**
     * Create an address space with @p va_bits of user virtual address
     * space (the paper discusses both the common 47-bit / 128 TiB user
     * split and 48-bit / 256 TiB full use).
     *
     * The lowest 1 MiB is left unusable to model the standard mmap_min_addr
     * reservation.
     */
    explicit AddressSpace(unsigned va_bits = 47);

    /**
     * Reserve @p size bytes anywhere, aligned to @p align.
     * @return the start address, or std::nullopt if the space is full.
     */
    std::optional<VAddr> reserve(std::uint64_t size,
                                 std::uint64_t align = kPageSize);

    /** Release a previously reserved range starting at @p addr. */
    bool release(VAddr addr);

    /**
     * Size of the reservation whose base is exactly @p base, or
     * std::nullopt if no reservation starts there.
     */
    std::optional<std::uint64_t> rangeAt(VAddr base) const;

    /** True if @p addr falls inside any reservation. */
    bool isReserved(VAddr addr) const;

    /** Total bytes currently reserved. */
    std::uint64_t reservedBytes() const { return reserved_; }

    /** Total usable bytes in this address space. */
    std::uint64_t usableBytes() const { return limit - base; }

    /** Number of user VA bits. */
    unsigned vaBits() const { return bits; }

  private:
    unsigned bits;
    VAddr base;  ///< lowest usable address
    VAddr limit; ///< one past the highest usable address

    /** start -> size of each reservation. */
    std::map<VAddr, std::uint64_t> ranges;
    std::uint64_t reserved_ = 0;
    /** One past the highest reservation ever made. */
    VAddr highWater = 0;
    /** True when a release may have opened holes below highWater. */
    bool hasHoles = false;
};

} // namespace hfi::vm

#endif // HFI_VM_ADDRESS_SPACE_H
