/**
 * @file
 * A set-associative cache with true-LRU replacement, used for the L1
 * instruction and data caches (Table 2: 32 KiB, 8-way, 64 B lines) and
 * for the dtb (one fully-associative set whose lines are 4 KiB pages;
 * see kDtbConfig).
 *
 * Two properties matter beyond hit/miss timing:
 *
 *  - Fills and LRU updates are side effects an attacker can observe
 *    with a timing probe, so the Spectre experiments (Fig 7) inspect
 *    and time this exact structure; and
 *  - the HFI pipeline *withholds* the fill/update when a bounds check
 *    fails — §4.1's "no metadata updates if there has been a fault" —
 *    which is the mechanism that defeats the cache side channel.
 */

#ifndef HFI_SIM_CACHE_H
#define HFI_SIM_CACHE_H

#include <cstdint>
#include <vector>

namespace hfi::sim
{

/** Cache geometry + latencies. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned lineBytes = 64;
    unsigned hitLatency = 4;   ///< cycles
    unsigned missLatency = 80; ///< cycles to memory (flat, no L2 model)
};

/** Result of a cache access. */
struct CacheAccess
{
    bool hit = false;
    unsigned latency = 0;
};

class Cache
{
  public:
    /**
     * @throws std::invalid_argument unless lineBytes and the set count
     *         (sizeBytes / (ways * lineBytes)) are powers of two, so
     *         every index is a shift and a mask.
     */
    explicit Cache(CacheConfig config = {});

    /**
     * Access the line containing @p addr: on a miss the line is filled
     * (evicting LRU); either way the LRU stamp is refreshed. This is
     * the normal, side-effecting path.
     */
    CacheAccess access(std::uint64_t addr);

    /**
     * Timing-only probe: report what an access *would* cost without
     * touching any cache state. Used for the faulting-access path
     * (§4.1: a failed bounds check must not update cache metadata) and
     * by tests that inspect state non-destructively.
     */
    CacheAccess probe(std::uint64_t addr) const;

    /** True if the line containing @p addr is present. */
    bool contains(std::uint64_t addr) const;

    /** Evict the line containing @p addr (the attacker's clflush). */
    void flush(std::uint64_t addr);

    /** Evict everything. */
    void flushAll();

    const CacheConfig &config() const { return config_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Line
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;
    };

    std::uint64_t lineFor(std::uint64_t addr) const
    {
        return addr >> lineShift_;
    }

    unsigned setOf(std::uint64_t line) const
    {
        return static_cast<unsigned>(line & (sets - 1));
    }

    std::uint64_t tagOf(std::uint64_t line) const
    {
        return line >> setShift_;
    }

    CacheConfig config_;
    unsigned sets;
    std::vector<Line> lines; ///< sets x ways
    std::uint64_t stamp = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    unsigned lineShift_ = 0;
    unsigned setShift_ = 0;

    /**
     * MRU filter: the line of the previous access(), if still valid.
     * A repeat access must hit (nothing evicted it since) and already
     * holds the youngest stamp in its set, so skipping the LRU re-stamp
     * cannot change any replacement decision — the fast path is exact.
     */
    std::uint64_t lastLine_ = 0;
    bool lastLineValid_ = false;
};

} // namespace hfi::sim

#endif // HFI_SIM_CACHE_H
