#include "sfi/runtime.h"

#include <algorithm>
#include <stdexcept>

namespace hfi::sfi
{

Runtime::Runtime(vm::Mmu &mmu, core::HfiContext &ctx, RuntimeConfig config)
    : mmu_(mmu), ctx(ctx), config_(config)
{
}

std::unique_ptr<Sandbox>
Runtime::createSandbox(SandboxOptions opts)
{
    auto sandbox = std::make_unique<Sandbox>(
        mmu_, ctx, config_.backend,
        config_.costs.value_or(paperCosts(config_.backend)), opts);
    if (!sandbox->valid())
        return nullptr;
    return sandbox;
}

void
Runtime::reclaim(const std::vector<Sandbox *> &sandboxes,
                 ReclaimPolicy policy, std::size_t batch_size)
{
    if (policy == ReclaimPolicy::Stock) {
        // One madvise per instance, over its accessible memory.
        for (Sandbox *s : sandboxes) {
            mmu_.madviseDontneed(s->backend().baseAddress(),
                                 s->memory().size());
        }
        return;
    }

    // Batched: one madvise per run of @p batch_size sandboxes, spanning
    // from the lowest footprint to the highest — guard regions included.
    if (batch_size == 0)
        throw std::invalid_argument("Runtime::reclaim: batch size 0");
    for (std::size_t i = 0; i < sandboxes.size(); i += batch_size) {
        const std::size_t end = std::min(i + batch_size, sandboxes.size());
        std::uint64_t lo = UINT64_MAX;
        std::uint64_t hi = 0;
        for (std::size_t j = i; j < end; ++j) {
            const auto &backend = sandboxes[j]->backend();
            lo = std::min(lo, backend.baseAddress());
            hi = std::max(hi,
                          backend.baseAddress() + backend.reservedVaBytes());
        }
        if (lo < hi)
            mmu_.madviseDontneed(lo, hi - lo);
    }
}

std::uint64_t
Runtime::addressSpaceCapacity(std::uint64_t heap_bytes) const
{
    const std::uint64_t footprint = footprintBytes(config_.backend, heap_bytes);
    const std::uint64_t usable = mmu_.addressSpace().usableBytes() -
                                 mmu_.addressSpace().reservedBytes();
    return usable / footprint;
}

} // namespace hfi::sfi
