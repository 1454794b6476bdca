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

#include <cstdint>
#include <cstring>
#include <vector>

namespace hfi::sfi
{

/** A Wasm page: 64 KiB. */
constexpr std::uint64_t kWasmPageSize = 1ULL << 16;

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
 * SpareStoreScope is open); the new memory zero-fills it. A serving run
 * that creates and tears down instances by the batch would otherwise
 * hand their pages back to the OS and fault them in again for the next
 * batch.
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
    LinearMemory(const LinearMemory &) = default;
    LinearMemory(LinearMemory &&) = default;
    LinearMemory &operator=(const LinearMemory &) = default;
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
        T v;
        std::memcpy(&v, bytes.data() + offset, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(std::uint64_t offset, T value)
    {
        std::memcpy(bytes.data() + offset, &value, sizeof(T));
    }

    /** Bulk copy in (for staging workload inputs). */
    void writeBytes(std::uint64_t offset, const void *src, std::uint64_t len);

    /** Bulk copy out (for checking workload outputs). */
    void readBytes(std::uint64_t offset, void *dst, std::uint64_t len) const;

    /** Direct pointer into the backing store (runtime-internal use). */
    std::uint8_t *data() { return bytes.data(); }
    const std::uint8_t *data() const { return bytes.data(); }

  private:
    std::uint64_t sizePages;
    std::uint64_t maxPages_;
    std::vector<std::uint8_t> bytes;
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
