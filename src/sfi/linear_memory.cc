#include "sfi/linear_memory.h"

#include <algorithm>
#include <iterator>
#include <new>
#include <stdexcept>
#include <vector>

namespace hfi::sfi
{

namespace
{

/**
 * Spare backing stores kept per thread and per teardown batch of the
 * serving engine (WorkerConfig::teardownBatch), in at most 8 MiB.
 */
constexpr std::size_t kSpareStores = 32;
constexpr std::uint64_t kSpareBytes = 8ULL << 20;

/** Backing stores of destroyed memories on this thread, oldest first. */
struct SpareStores
{
    std::vector<BackingStore> stores;
    std::uint64_t bytes = 0;

    ~SpareStores();
};

/**
 * Set when this thread's SpareStores is destroyed at thread exit, so a
 * memory destroyed after it frees its store instead. Trivially
 * destructible, so it stays readable then.
 */
thread_local bool spareGone = false;
thread_local SpareStores spare;

/** Teardown batches this thread's spares may hold (SpareStoreScope). */
thread_local std::size_t spareBatches = 1;

SpareStores::~SpareStores()
{
    spareGone = true;
}

/** Drop the oldest spares until @p stores more in @p bytes more fit. */
void
makeRoom(std::size_t stores, std::uint64_t bytes)
{
    auto &kept = spare.stores;
    while (!kept.empty() &&
           (kept.size() + stores > kSpareStores * spareBatches ||
            spare.bytes + bytes > kSpareBytes * spareBatches)) {
        spare.bytes -= kept.front().capacity;
        kept.erase(kept.begin());
    }
}

/** A store of @p capacity bytes, all zero: its mark is 0. */
BackingStore
allocateZeroed(std::uint64_t capacity)
{
    BackingStore store;
    if (capacity == 0)
        return store;
    store.bytes.reset(static_cast<std::uint8_t *>(std::calloc(capacity, 1)));
    if (!store.bytes)
        throw std::bad_alloc();
    store.capacity = capacity;
    return store;
}

} // namespace

LinearMemory::LinearMemory(std::uint64_t initial_pages,
                           std::uint64_t max_pages)
    : sizePages(initial_pages), maxPages_(max_pages)
{
    if (initial_pages > max_pages)
        throw std::invalid_argument(
            "LinearMemory: initial pages exceed the maximum");
    const std::uint64_t size = sizePages * kWasmPageSize;
    if (!spareGone) {
        // The newest spare store that fits without wasting over half.
        auto &stores = spare.stores;
        for (auto it = stores.rbegin(); it != stores.rend(); ++it) {
            if (it->capacity >= size && it->capacity <= 2 * size) {
                spare.bytes -= it->capacity;
                store_ = std::move(*it);
                stores.erase(std::next(it).base());
                break;
            }
        }
    }
    if (!store_.bytes) {
        store_ = allocateZeroed(size);
        return;
    }
    // Only the bytes below the mark can hold the last tenant's data.
    std::memset(store_.bytes.get(), 0, store_.mark);
    store_.mark = 0;
}

LinearMemory::~LinearMemory()
{
    const std::uint64_t capacity = store_.capacity;
    if (spareGone || capacity == 0 || capacity > kSpareBytes)
        return;
    makeRoom(1, capacity);
    spare.bytes += capacity;
    spare.stores.push_back(std::move(store_));
}

SpareStoreScope::SpareStoreScope(std::size_t batches)
    : previous_(spareBatches)
{
    spareBatches = std::max<std::size_t>(batches, 1);
}

SpareStoreScope::~SpareStoreScope()
{
    spareBatches = previous_;
    if (!spareGone)
        makeRoom(0, 0);
}

std::int64_t
LinearMemory::grow(std::uint64_t delta_pages)
{
    // Compared without the sum, which a huge delta would wrap.
    if (delta_pages > maxPages_ - sizePages)
        return -1;
    const std::int64_t prev = static_cast<std::int64_t>(sizePages);
    const std::uint64_t old_size = size();
    sizePages += delta_pages;
    if (size() > store_.capacity) {
        // Double as std::vector does. The new store is zero, so only the
        // bytes below the mark need to move.
        BackingStore bigger = allocateZeroed(std::max(2 * old_size, size()));
        if (store_.mark != 0)
            std::memcpy(bigger.bytes.get(), store_.bytes.get(), store_.mark);
        bigger.mark = store_.mark;
        store_ = std::move(bigger);
    }
    return prev;
}

void
LinearMemory::writeBytes(std::uint64_t offset, const void *src,
                         std::uint64_t len)
{
    // An empty copy may come from a null pointer (an empty vector's
    // data()), which memcpy does not allow, and writes nothing to mark.
    if (len == 0)
        return;
    std::memcpy(store_.bytes.get() + offset, src, len);
    markDirty(offset + len);
}

void
LinearMemory::readBytes(std::uint64_t offset, void *dst,
                        std::uint64_t len) const
{
    if (len == 0)
        return;
    std::memcpy(dst, store_.bytes.get() + offset, len);
}

} // namespace hfi::sfi
