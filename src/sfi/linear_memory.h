/**
 * @file
 * A Wasm-style linear memory with real byte storage.
 *
 * Workloads executed inside a Sandbox read and write genuine bytes here
 * (so tests can check functional results), while the *enforcement* of the
 * heap bound and the *cost* of growth are delegated to the sandbox's
 * Backend. Growth happens in 64 KiB Wasm pages (§3.2: "granular
 * heap growth (64K increments)").
 */

#ifndef HFI_SFI_LINEAR_MEMORY_H
#define HFI_SFI_LINEAR_MEMORY_H

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>

namespace hfi::sfi
{

/** A Wasm page: 64 KiB. */
constexpr std::uint64_t kWasmPageSize = 1ULL << 16;

/**
 * The byte buffer behind one LinearMemory, with its dirty mark: the end
 * of the highest byte any write could have reached since the buffer was
 * last known zero. Invariant: every byte of the capacity at or above
 * the mark is zero.
 */
struct BackingStore
{
    struct Free
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    BackingStore() = default;
    BackingStore(BackingStore &&other) noexcept { *this = std::move(other); }
    BackingStore &
    operator=(BackingStore &&other) noexcept
    {
        bytes = std::move(other.bytes);
        capacity = std::exchange(other.capacity, 0);
        mark = std::exchange(other.mark, 0);
        return *this;
    }

    std::unique_ptr<std::uint8_t[], Free> bytes;
    std::uint64_t capacity = 0;
    std::uint64_t mark = 0;
};

/**
 * Backing store for one sandbox's linear memory.
 *
 * Storage is allocated lazily in Wasm-page chunks as the memory grows,
 * mirroring how a real runtime's reserved-but-unmapped pages only gain
 * backing on mprotect/touch.
 *
 * A destroyed memory's backing store is kept, per host thread, for the
 * next memory created there (one teardown batch: up to 32 stores in
 * 8 MiB, oldest dropped first, or one batch per serving core while a
 * SpareStoreScope is open). A serving run that creates and tears down
 * instances by the batch would otherwise hand their pages back to the
 * OS and fault them in again for the next batch.
 *
 * No tenant may see another's bytes, so every write path raises the
 * store's dirty mark (BackingStore): store<T>, writeBytes and the
 * non-const data() here, and Sandbox's first touch of a page. A reused
 * store is zeroed only below its mark, so a cold instance costs what
 * its last tenant could have written, not its declared size. A fresh
 * store is allocated zeroed and a grow past the capacity moves to a
 * zeroed buffer, so the bytes above the mark stay zero. The store is
 * zeroed when it is reused, not when it is destroyed: the serving
 * engine destroys instances a whole batch at a time, and zeroing there
 * would add every store's memset to the request that ends the batch.
 */
class LinearMemory
{
  public:
    /**
     * @param initial_pages accessible pages at creation.
     * @param max_pages maximum the memory may grow to (Wasm's declared
     *        maximum; 65536 pages = the 4 GiB architectural limit).
     * @throws std::invalid_argument when @p initial_pages exceeds
     *         @p max_pages: the backend reserves only the maximum.
     */
    explicit LinearMemory(std::uint64_t initial_pages = 1,
                          std::uint64_t max_pages = 65536);
    /** Keeps the backing store for this thread's next LinearMemory. */
    ~LinearMemory();
    LinearMemory(const LinearMemory &) = delete;
    LinearMemory(LinearMemory &&) = default;
    LinearMemory &operator=(const LinearMemory &) = delete;
    LinearMemory &operator=(LinearMemory &&) = default;

    /**
     * Grow by @p delta_pages (memory_grow semantics).
     * @return the previous size in pages, or -1 on failure, exactly like
     *         the Wasm instruction.
     */
    std::int64_t grow(std::uint64_t delta_pages);

    /** Accessible size in bytes. */
    std::uint64_t size() const { return sizePages * kWasmPageSize; }

    /** Accessible size in Wasm pages. */
    std::uint64_t pages() const { return sizePages; }

    /** Declared maximum in Wasm pages. */
    std::uint64_t maxPages() const { return maxPages_; }

    /** True if [offset, offset+width) is within the accessible size. */
    bool
    inBounds(std::uint64_t offset, std::uint64_t width) const
    {
        const std::uint64_t sz = size();
        return offset <= sz && width <= sz - offset;
    }

    /**
     * Raw typed access. Callers (Sandbox) must have performed the
     * backend's isolation check first; these methods only assert the
     * invariant cheaply via inBounds in debug builds.
     */
    template <typename T>
    T
    load(std::uint64_t offset) const
    {
        assert(inBounds(offset, sizeof(T)));
        T v;
        std::memcpy(&v, store_.bytes.get() + offset, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(std::uint64_t offset, T value)
    {
        put<T>(offset, value);
        markDirty(offset + sizeof(T));
    }

    /** Bulk copy in (for staging workload inputs). */
    void writeBytes(std::uint64_t offset, const void *src, std::uint64_t len);

    /** Bulk copy out (for checking workload outputs). */
    void readBytes(std::uint64_t offset, void *dst, std::uint64_t len) const;

    /**
     * Direct pointer into the backing store (runtime-internal use). The
     * caller may write anywhere in the size, so this marks all of it.
     */
    std::uint8_t *
    data()
    {
        markDirty(size());
        return store_.bytes.get();
    }
    const std::uint8_t *data() const { return store_.bytes.get(); }

    /**
     * Diagnostics for tests of the store's reuse; no runtime path reads
     * them. capacity() is the bytes the backing store holds (a grow
     * within them keeps the store). dirtyEnd() is its dirty mark: every
     * byte of the capacity at or above it is zero, and a reuse zeroes
     * the bytes below it.
     */
    std::uint64_t capacity() const { return store_.capacity; }
    std::uint64_t dirtyEnd() const { return store_.mark; }

  private:
    /**
     * Sandbox writes only into pages it has first-touched, and its first
     * touch marks them (Sandbox::firstTouch), so its inline path stores
     * through these unmarked accessors.
     */
    friend class Sandbox;

    template <typename T>
    void
    put(std::uint64_t offset, T value)
    {
        assert(inBounds(offset, sizeof(T)));
        std::memcpy(store_.bytes.get() + offset, &value, sizeof(T));
    }

    std::uint8_t *bytesUnmarked() { return store_.bytes.get(); }

    /** Raise the dirty mark to @p end, which is at most the size. */
    void
    markDirty(std::uint64_t end)
    {
        if (end > store_.mark)
            store_.mark = end;
    }

    std::uint64_t sizePages;
    std::uint64_t maxPages_;
    BackingStore store_;
};

/**
 * While open, this thread keeps @p batches teardown batches of spare
 * backing stores instead of one. A thread that drives several serving
 * cores tears down one batch per core, often back to back, and a single
 * batch's worth of spares would hand the rest back to the allocator.
 * Closing the scope drops the spares beyond the budget it replaced.
 */
class SpareStoreScope
{
  public:
    explicit SpareStoreScope(std::size_t batches);
    ~SpareStoreScope();
    SpareStoreScope(const SpareStoreScope &) = delete;
    SpareStoreScope &operator=(const SpareStoreScope &) = delete;

  private:
    std::size_t previous_;
};

} // namespace hfi::sfi

#endif // HFI_SFI_LINEAR_MEMORY_H
