/**
 * @file
 * Wasm multi-memory's register policy (§3.3.1): memories outnumbering
 * the explicit region registers are bound on use, the least recently
 * used making way, at one serialized hfi_set_region per rebind (§4.3).
 * Backend binds memories 1..N-1 to registers 1..3 with it, and
 * bench/ablation_regions sweeps its slot count.
 */

#ifndef HFI_SFI_LRU_BINDER_H
#define HFI_SFI_LRU_BINDER_H

#include <array>
#include <cassert>
#include <cstdint>

namespace hfi::sfi
{

/**
 * LRU assignment of memories to at most kMaxSlots slots. A miss takes
 * the lowest empty slot, or else the one used longest ago.
 */
class LruBinder
{
  public:
    static constexpr unsigned kMaxSlots = 8;
    /** No memory: an empty slot, or nothing evicted. */
    static constexpr unsigned kNone = ~0u;

    struct Binding
    {
        unsigned slot;    ///< the slot that now holds the memory
        bool hit;         ///< it held the memory already
        unsigned evicted; ///< the memory a miss displaced, or kNone
    };

    explicit LruBinder(unsigned slots) : slots_(slots)
    {
        assert(slots >= 1 && slots <= kMaxSlots);
    }

    /** Bind @p memory (not kNone), making it the most recently used. */
    Binding
    bind(unsigned memory)
    {
        ++clock_;
        unsigned victim = 0;
        for (unsigned s = 0; s < slots_; ++s) {
            if (memoryAt(s) == memory) {
                used_[s] = clock_;
                return {s, true, kNone};
            }
            if (used_[s] < used_[victim]) // an empty slot's stamp is 0
                victim = s;
        }
        const Binding miss{victim, false, memoryAt(victim)};
        memory_[victim] = memory;
        used_[victim] = clock_;
        return miss;
    }

    /** The memory @p slot holds, or kNone. */
    unsigned
    memoryAt(unsigned slot) const
    {
        return used_[slot] != 0 ? memory_[slot] : kNone;
    }

    /** The slot holding @p memory, or -1. */
    int
    slotOf(unsigned memory) const
    {
        for (unsigned s = 0; s < slots_; ++s) {
            if (memoryAt(s) == memory)
                return static_cast<int>(s);
        }
        return -1;
    }

    unsigned slots() const { return slots_; }

  private:
    unsigned slots_;
    std::array<unsigned, kMaxSlots> memory_{};
    /** Each slot's last-use stamp on the bind clock; 0 when empty. */
    std::array<std::uint64_t, kMaxSlots> used_{};
    std::uint64_t clock_ = 0;
};

} // namespace hfi::sfi

#endif // HFI_SFI_LRU_BINDER_H
