#include "sim/cache.h"

#include <bit>
#include <stdexcept>

namespace hfi::sim
{

Cache::Cache(CacheConfig config)
    : config_(config),
      sets(config.ways * config.lineBytes == 0
               ? 0
               : static_cast<unsigned>(config.sizeBytes /
                                       (config.ways * config.lineBytes)))
{
    if (!std::has_single_bit(config_.lineBytes) || !std::has_single_bit(sets))
        throw std::invalid_argument(
            "Cache: line size and set count must be powers of two");
    lines.resize(static_cast<std::size_t>(sets) * config_.ways);
    lineShift_ = static_cast<unsigned>(std::countr_zero(config_.lineBytes));
    setShift_ = static_cast<unsigned>(std::countr_zero(sets));
}

CacheAccess
Cache::access(std::uint64_t addr)
{
    const std::uint64_t line = lineFor(addr);
    if (lastLineValid_ && line == lastLine_) {
        ++hits_;
        return {true, config_.hitLatency};
    }

    const unsigned set = setOf(line);
    const std::uint64_t tag = tagOf(line);
    Line *entry = &lines[static_cast<std::size_t>(set) * config_.ways];

    Line *lru = entry;
    for (unsigned w = 0; w < config_.ways; ++w) {
        Line &way = entry[w];
        if (way.valid && way.tag == tag) {
            way.lruStamp = ++stamp;
            ++hits_;
            lastLine_ = line;
            lastLineValid_ = true;
            return {true, config_.hitLatency};
        }
        if (!way.valid || way.lruStamp < lru->lruStamp)
            lru = &way;
    }

    // Miss: fill into the LRU way.
    lru->valid = true;
    lru->tag = tag;
    lru->lruStamp = ++stamp;
    ++misses_;
    lastLine_ = line;
    lastLineValid_ = true;
    return {false, config_.missLatency};
}

CacheAccess
Cache::probe(std::uint64_t addr) const
{
    return contains(addr) ? CacheAccess{true, config_.hitLatency}
                          : CacheAccess{false, config_.missLatency};
}

bool
Cache::contains(std::uint64_t addr) const
{
    const std::uint64_t line = lineFor(addr);
    const unsigned set = setOf(line);
    const std::uint64_t tag = tagOf(line);
    const Line *entry = &lines[static_cast<std::size_t>(set) * config_.ways];
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (entry[w].valid && entry[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush(std::uint64_t addr)
{
    const std::uint64_t line = lineFor(addr);
    const unsigned set = setOf(line);
    const std::uint64_t tag = tagOf(line);
    Line *entry = &lines[static_cast<std::size_t>(set) * config_.ways];
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (entry[w].valid && entry[w].tag == tag)
            entry[w].valid = false;
    }
    lastLineValid_ = false;
}

void
Cache::flushAll()
{
    for (Line &line : lines)
        line.valid = false;
    lastLineValid_ = false;
}

} // namespace hfi::sim
