/**
 * @file
 * A sandbox instance: one linear memory + one isolation backend + the
 * metered execution surface that workloads run against.
 *
 * Workloads perform *real* computation — loads and stores move genuine
 * bytes through LinearMemory so functional results are testable — while
 * every access is (a) checked by the configured isolation backend and
 * (b) charged to the virtual clock with the backend's steady-state cost
 * structure. This is the same separation the paper's compiler-based
 * emulation makes (§5.2): real work, modeled isolation costs.
 *
 * The access path is header-inline and makes no virtual call: the
 * sandbox holds its Backend by value, accepts an in-bounds access
 * against live state (the linear memory's size, or HFI's heap region
 * register), probes a byte map of touched 4 KiB pages, charges the
 * cached cost and moves bytes. Everything it does not accept goes to
 * the backend's checkAccess, the one slow path, which raises every trap
 * and performs every mask wrap.
 *
 * Checking and charging are separate: checkedSpan() checks a whole span
 * once and pages it in, chargeAccesses() charges n accesses, and
 * load/store, loadN/storeN and the kernels that walk rows of a span are
 * built on those two. The modeled cost is the same whichever way a
 * kernel splits them, because the clock after exit() depends only on
 * the total milli-cycles charged.
 *
 * Under HFI, memories 1..N-1 (addMemory, Wasm multi-memory) are bound
 * to a register and hmov-checked by the Backend on each access and
 * charged as heap accesses, with no inline path or first-touch fault.
 *
 * Sandboxes over one Mmu are placed first-fit, so consecutive instances
 * are VA-adjacent, as in the Wasmtime integration of §5.1; reclaim()
 * discards their memories with madvise(MADV_DONTNEED) under the two
 * §6.3.1 policies.
 */

#ifndef HFI_SFI_SANDBOX_H
#define HFI_SFI_SANDBOX_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "sfi/backend.h"
#include "sfi/linear_memory.h"
#include "vm/mmu.h"

namespace hfi::sfi
{

/**
 * Thrown when a sandboxed access traps (guard-page SIGSEGV, bounds-check
 * trap stub, or HFI fault). Mask backends never throw — that is their
 * documented defect.
 */
class SandboxTrap : public std::runtime_error
{
  public:
    SandboxTrap(std::uint64_t offset, std::uint32_t width, bool write)
        : std::runtime_error(std::string()), offset_(offset), width_(width),
          write_(write)
    {
    }

    /**
     * "sandbox trap: <load|store> of <width> bytes at offset 0x<hex>",
     * formatted on first use: workloads that catch traps as control
     * flow (invoke, fault injection) never pay for the string.
     */
    const char *what() const noexcept override;

    std::uint64_t offset() const { return offset_; }
    std::uint32_t width() const { return width_; }
    bool isWrite() const { return write_; }

  private:
    std::uint64_t offset_;
    std::uint32_t width_;
    bool write_;
    mutable std::string message_;
};

/** Per-sandbox construction parameters. */
struct SandboxOptions
{
    std::uint64_t initialPages = 1;
    std::uint64_t maxPages = 65536; ///< 4 GiB, the Wasm limit
    /**
     * How sensitive this workload's code footprint is to instruction-
     * cache pressure (0..100). Big-code workloads (445.gobmk) suffer
     * from hmov's longer encodings (§6.1); small kernels do not.
     */
    unsigned icacheSensitivity = 0;
};

/** Execution counters for one sandbox. */
struct SandboxStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t ops = 0;
    std::uint64_t growCalls = 0;
    std::uint64_t traps = 0;
    std::uint64_t wrappedAccesses = 0;
    std::uint64_t invocations = 0;
    /** Accesses that bound their memory to a register (set_region). */
    std::uint64_t rebinds = 0;
};

/**
 * One sandbox instance.
 *
 * Thin, fast hot path: load/store accept the access inline (or take the
 * backend's checkAccess), page in newly touched 4 KiB pages through the
 * Mmu (first touch only), charge the cached milli-cycle cost, and move
 * real bytes.
 */
class Sandbox
{
  public:
    /**
     * Create a sandbox over a Backend(@p mmu, @p ctx, @p kind, @p costs).
     * The backend's create() runs immediately; failure (address space
     * exhausted) leaves valid() false — the §6.3.2 scaling limit.
     * Throws std::invalid_argument when opts.initialPages exceeds
     * opts.maxPages.
     */
    Sandbox(vm::Mmu &mmu, core::HfiContext &ctx, BackendKind kind,
            const BackendCosts &costs, SandboxOptions opts);

    /** A sandbox charging paperCosts(@p kind). */
    Sandbox(vm::Mmu &mmu, core::HfiContext &ctx, BackendKind kind,
            SandboxOptions opts = {});

    Sandbox(const Sandbox &) = delete;
    Sandbox &operator=(const Sandbox &) = delete;

    /** True when the backend's address-space footprint was created. */
    bool valid() const { return valid_; }

    /** Re-install per-core enforcement state on warm dispatch. */
    void rebindRegions() { backend_.rebindRegions(); }

    /** Enter sandboxed execution (springboard / hfi_enter). */
    void enter();

    /** Leave sandboxed execution (trampoline / hfi_exit). */
    void exit();

    /**
     * Run @p fn between enter() and exit(), converting a SandboxTrap
     * into a false return. The normal way workloads are invoked.
     */
    template <typename F>
    bool
    invoke(F &&fn)
    {
        ++stats_.invocations;
        enter();
        bool ok = true;
        try {
            fn(*this);
        } catch (const SandboxTrap &) {
            ++stats_.traps;
            ok = false;
        }
        exit();
        return ok;
    }

    /** memory_grow: add @p delta_pages. @return prior size or -1. */
    std::int64_t memoryGrow(std::uint64_t delta_pages)
    {
        return memoryGrow(0, delta_pages);
    }

    /** memory_grow on memory @p memory (0: the heap). */
    std::int64_t memoryGrow(unsigned memory, std::uint64_t delta_pages);

    /**
     * Add the next memory, reserving its own footprintBytes.
     * @return false when the address space cannot hold it.
     * @throws std::invalid_argument unless the backend is HFI, or when
     *         @p initial_pages exceeds @p max_pages.
     */
    bool addMemory(std::uint64_t initial_pages, std::uint64_t max_pages);

    /** Typed load at @p offset; throws SandboxTrap on a violation. */
    template <typename T>
    T
    load(std::uint64_t offset)
    {
        const std::uint64_t at = access(offset, sizeof(T), false);
        chargeAccesses(1, false);
        return memory_.load<T>(at);
    }

    /** Typed store at @p offset; throws SandboxTrap on a violation. */
    template <typename T>
    void
    store(std::uint64_t offset, T value)
    {
        const std::uint64_t at = access(offset, sizeof(T), true);
        chargeAccesses(1, true);
        memory_.put<T>(at, value);
    }

    /** Typed load from memory @p memory (0: the heap). */
    template <typename T>
    T
    load(unsigned memory, std::uint64_t offset)
    {
        if (memory == 0)
            return load<T>(offset);
        const LinearMemory &mem = checkMemory(memory, offset, sizeof(T), false);
        chargeAccesses(1, false);
        return mem.load<T>(offset);
    }

    /** Typed store to memory @p memory (0: the heap). */
    template <typename T>
    void
    store(unsigned memory, std::uint64_t offset, T value)
    {
        if (memory == 0)
            return store<T>(offset, value);
        LinearMemory &mem = checkMemory(memory, offset, sizeof(T), true);
        chargeAccesses(1, true);
        mem.store<T>(offset, value);
    }

    /**
     * Load @p n consecutive T from @p offset into @p dst: the same
     * bytes, counters, charge, page faults and traps as n load<T> calls
     * at offset, offset + sizeof(T), ... A span the sandbox accepts is
     * checked once and charged as n loads; any other span runs the
     * element loop, so a trap lands on the same element.
     */
    template <typename T>
    void
    loadN(std::uint64_t offset, T *dst, std::size_t n)
    {
        const std::uint8_t *bytes = checkedSpan(offset, sizeof(T), n, false);
        if (!bytes) {
            for (std::size_t i = 0; i < n; ++i)
                dst[i] = load<T>(offset + i * sizeof(T));
            return;
        }
        chargeAccesses(n, false);
        std::memcpy(dst, bytes, n * sizeof(T));
    }

    /** Store @p n consecutive T from @p src at @p offset; see loadN. */
    template <typename T>
    void
    storeN(std::uint64_t offset, const T *src, std::size_t n)
    {
        std::uint8_t *bytes = checkedSpan(offset, sizeof(T), n, true);
        if (!bytes) {
            for (std::size_t i = 0; i < n; ++i)
                store<T>(offset + i * sizeof(T), src[i]);
            return;
        }
        chargeAccesses(n, true);
        std::memcpy(bytes, src, n * sizeof(T));
    }

    /**
     * True when the sandbox accepts all @p n elements of @p width at
     * @p offset inline, so none of them can trap or wrap; n == 0 is
     * never accepted. A kernel that works on several spans at once asks
     * this for each before checkedSpan() pages any of them in.
     */
    bool
    acceptsSpan(std::uint64_t offset, std::uint64_t width, std::size_t n,
                bool write) const
    {
        const std::uint64_t bytes = n * width;
        return n != 0 && bytes / width == n &&
               backend_.accepts(offset, bytes, write, memory_);
    }

    /**
     * Check a span of @p n elements of @p width once: when the sandbox
     * accepts it, page it in as the element loop would and return its
     * bytes in linear memory (valid until the next memoryGrow). Charges
     * and counts nothing: the caller charges each access it makes with
     * chargeAccesses(). Returns nullptr, touching nothing, for a span it
     * does not accept; the caller then takes load<T>/store<T> per
     * element, which traps or wraps on the element that does.
     */
    std::uint8_t *
    checkedSpan(std::uint64_t offset, std::uint32_t width, std::size_t n,
                bool write)
    {
        if (!acceptsSpan(offset, width, n, write))
            return nullptr;
        touchSpan(offset, width, n);
        return memory_.bytesUnmarked() + offset;
    }

    /**
     * Count and charge @p n loads (or stores, when @p write): the same
     * counters and milli-cycles as n load<T> (store<T>) calls.
     */
    void
    chargeAccesses(std::uint64_t n, bool write)
    {
        (write ? stats_.stores : stats_.loads) += n;
        chargeMilli(n * (1000 + accessMilli));
    }

    /**
     * Charge @p n ALU/control operations of compute. One op is one
     * cycle at the model's IPC=1 baseline, plus the backend's register-
     * pressure tax.
     */
    void
    chargeOps(std::uint64_t n)
    {
        stats_.ops += n;
        chargeMilli(n * (1000 + opMilli));
    }

    LinearMemory &memory() { return memory_; }
    const LinearMemory &memory() const { return memory_; }
    Backend &backend() { return backend_; }
    const SandboxStats &stats() const { return stats_; }
    vm::Mmu &mmu() { return mmu_; }

    /** Flush accumulated sub-cycle charge to the clock (done on exit). */
    void flushCharge();

  private:
    /** Check one access and page it in; returns the offset accessed. */
    std::uint64_t
    access(std::uint64_t offset, std::uint32_t width, bool write)
    {
        const std::uint64_t at =
            backend_.accepts(offset, width, write, memory_)
                ? offset
                : checkedOffset(offset, width, write);
        touch(at, width);
        return at;
    }

    /**
     * First touch of a 4 KiB page takes a minor fault through the Mmu
     * (allocation + page-table fill); later accesses are free. An access
     * is at most a page wide, so it covers its first byte's page and at
     * most the next one: both are probed (one AND of the two flags keeps
     * the loop counters of a kernel's access loop in registers).
     */
    void
    touch(std::uint64_t at, std::uint32_t width)
    {
        assert((at + width - 1) / vm::kPageSize < touched.size());
        assert(width <= vm::kPageSize);
        if (!(touched[at / vm::kPageSize] &
              touched[(at + width - 1) / vm::kPageSize]))
            firstTouch(at, width);
    }

    /**
     * touch() for each page of an accepted span, by the element that
     * first reaches it (the one holding the page's first byte) — the
     * element loop's Mmu calls, in its order.
     */
    void
    touchSpan(std::uint64_t offset, std::uint32_t width, std::size_t n)
    {
        const std::uint64_t last = (offset + n * width - 1) / vm::kPageSize;
        touch(offset, width);
        for (std::uint64_t page = offset / vm::kPageSize + 1; page <= last;
             ++page) {
            const std::uint64_t skip = page * vm::kPageSize - offset;
            touch(offset + skip / width * width, width);
        }
    }

    /** The backend's checkAccess: traps, wraps and HFI trap reasons. */
    std::uint64_t checkedOffset(std::uint64_t offset, std::uint32_t width,
                                bool write);

    /** Bind and check an access to memory @p memory >= 1, or throw. */
    LinearMemory &checkMemory(unsigned memory, std::uint64_t offset,
                              std::uint32_t width, bool write);

    /**
     * Mark the pages of an access of @p width at @p at touched, raise
     * the memory's dirty mark over them, and fault them in through the
     * Mmu.
     */
    void firstTouch(std::uint64_t at, std::uint32_t width);

    void
    chargeMilli(std::uint64_t milli)
    {
        pendingMilli += milli;
        if (pendingMilli >= kFlushThresholdMilli)
            flushCharge();
    }

    /**
     * Flush granularity: accumulated sub-cycle charge is pushed to the
     * clock once it reaches ~1000 cycles, so no observer (queueing
     * models in particular) ever sees a large deferred burst.
     */
    static constexpr std::uint64_t kFlushThresholdMilli = 1'000'000;

    vm::Mmu &mmu_;
    LinearMemory memory_;
    Backend backend_;
    bool valid_ = false;

    /**
     * Cached extra milli-cycles per load or store (cost row + icache
     * sensitivity) and per op.
     */
    std::uint64_t accessMilli = 0;
    std::uint64_t opMilli = 0;

    std::uint64_t pendingMilli = 0;
    /**
     * First-touch flag per 4 KiB page of the *accessible* memory, one
     * byte each; memoryGrow extends it.
     */
    std::vector<std::uint8_t> touched;

    SandboxStats stats_;

    /** Memories 1..N-1 (HFI multi-memory); empty for most instances. */
    std::vector<LinearMemory> extraMemories_;
};

/** How instance memories are reclaimed (§6.3.1). */
enum class ReclaimPolicy
{
    /** One madvise(MADV_DONTNEED) per sandbox (25.7 µs each). */
    Stock,
    /**
     * One madvise spanning each group of adjacent sandboxes. With HFI's
     * guard-free layout the heaps are contiguous and batching wins
     * (23.1 µs); with guard pages the kernel must walk the 8 GiB holes
     * between heaps and batching loses (31.1 µs).
     */
    Batched,
};

/**
 * Reclaim the memories of @p sandboxes through @p mmu.
 *
 * Stock discards each sandbox's accessible memory. Batched groups the
 * sandboxes into runs of @p batch_size and reclaims each run with a
 * single madvise spanning from the first footprint to the last,
 * including whatever guard regions lie in between: exactly the cost
 * HFI's guard elision removes. A Batched @p batch_size of 0 throws
 * std::invalid_argument.
 */
void reclaim(vm::Mmu &mmu, const std::vector<Sandbox *> &sandboxes,
             ReclaimPolicy policy, std::size_t batch_size = 32);

} // namespace hfi::sfi

#endif // HFI_SFI_SANDBOX_H
