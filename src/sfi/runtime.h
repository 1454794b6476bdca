/**
 * @file
 * The trusted sandbox runtime: creates, pools, and reclaims sandboxes.
 *
 * Models the Wasmtime integration of §5.1: sandboxes are created
 * back-to-back in the address space (first-fit, so consecutive instances
 * are VA-adjacent), and instance memories are reclaimed with
 * madvise(MADV_DONTNEED). Three reclaim policies reproduce §6.3.1:
 *
 *  - Stock: one madvise per sandbox (25.7 µs each in the paper);
 *  - Batched: one madvise spanning a whole group of adjacent sandboxes.
 *    With HFI's guard-free layout the heaps are contiguous and batching
 *    wins (23.1 µs); with guard pages the kernel must walk the 8 GiB
 *    holes between heaps and batching *loses* (31.1 µs).
 */

#ifndef HFI_SFI_RUNTIME_H
#define HFI_SFI_RUNTIME_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/context.h"
#include "sfi/backend.h"
#include "sfi/sandbox.h"
#include "vm/mmu.h"

namespace hfi::sfi
{

/** How the runtime reclaims instance memories (§6.3.1). */
enum class ReclaimPolicy
{
    Stock,   ///< one madvise(MADV_DONTNEED) per sandbox
    Batched, ///< one madvise spanning each group of adjacent sandboxes
};

/** Runtime-wide configuration. */
struct RuntimeConfig
{
    BackendKind backend = BackendKind::GuardPages;
    /** The backend's cost row; unset means paperCosts(backend). */
    std::optional<BackendCosts> costs{};
};

/**
 * Creates sandboxes over a shared Mmu/HfiContext and implements the
 * lifecycle policies the FaaS experiments measure.
 */
class Runtime
{
  public:
    Runtime(vm::Mmu &mmu, core::HfiContext &ctx, RuntimeConfig config = {});

    /**
     * Create a sandbox; returns nullptr when the address space cannot
     * hold another footprint (the §6.3.2 limit).
     */
    std::unique_ptr<Sandbox> createSandbox(SandboxOptions opts = {});

    /**
     * Reclaim the memories of @p sandboxes.
     *
     * With ReclaimPolicy::Batched, sandboxes are grouped into runs of
     * @p batch_size and each run is reclaimed with a single madvise
     * spanning from the first footprint to the last — including
     * whatever guard regions lie in between, which is exactly the cost
     * HFI's guard elision removes. A Batched @p batch_size of 0 throws
     * std::invalid_argument.
     */
    void reclaim(const std::vector<Sandbox *> &sandboxes,
                 ReclaimPolicy policy, std::size_t batch_size = 32);

    /**
     * Largest number of sandboxes with @p heap_bytes heaps that fit in
     * the remaining address space under this runtime's backend
     * footprint rules (analytic version of the §6.3.2 experiment).
     */
    std::uint64_t addressSpaceCapacity(std::uint64_t heap_bytes) const;

    vm::Mmu &mmu() { return mmu_; }
    core::HfiContext &context() { return ctx; }
    const RuntimeConfig &config() const { return config_; }

  private:
    vm::Mmu &mmu_;
    core::HfiContext &ctx;
    RuntimeConfig config_;
};

} // namespace hfi::sfi

#endif // HFI_SFI_RUNTIME_H
