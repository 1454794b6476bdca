#include "sfi/sandbox.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hfi::sfi
{

namespace
{

/**
 * The runtime's bookkeeping charged per memory_grow call in nanoseconds
 * (instance table updates, libcall trampoline). Calibrated so the §6.1
 * grow microbenchmark lands on the paper's 370 ms HFI total.
 */
constexpr double kGrowRuntimeNs = 5640.0;

} // namespace

const char *
SandboxTrap::what() const noexcept
{
    if (message_.empty()) {
        std::ostringstream os;
        os << "sandbox trap: " << (write_ ? "store" : "load") << " of "
           << width_ << " bytes at offset 0x" << std::hex << offset_;
        message_ = os.str();
    }
    return message_.c_str();
}

Sandbox::Sandbox(vm::Mmu &mmu, core::HfiContext &ctx, BackendKind kind,
                 const BackendCosts &costs, SandboxOptions opts)
    : mmu_(mmu), memory_(opts.initialPages, opts.maxPages),
      backend_(mmu, ctx, kind, costs)
{
    touched.resize(memory_.size() / vm::kPageSize, 0);
    valid_ = backend_.create(opts.initialPages, opts.maxPages);
    if (!valid_)
        return;

    const std::uint64_t icache =
        kind == BackendKind::Hfi
            ? Backend::kIcacheMilliPerAccess * opts.icacheSensitivity
            : 0;
    // Register-pressure spill cost is smeared over *every* instruction,
    // memory operations included (§6.1's whole-program 2.25%/2.40%).
    accessMilli = costs.accessMilli + icache + costs.opPressureMilli;
    opMilli = costs.opPressureMilli;
}

Sandbox::Sandbox(vm::Mmu &mmu, core::HfiContext &ctx, BackendKind kind,
                 SandboxOptions opts)
    : Sandbox(mmu, ctx, kind, paperCosts(kind), opts)
{
}

void
Sandbox::enter()
{
    backend_.enter();
}

void
Sandbox::exit()
{
    flushCharge();
    backend_.exit();
}

bool
Sandbox::addMemory(std::uint64_t initial_pages, std::uint64_t max_pages)
{
    LinearMemory memory(initial_pages, max_pages);
    if (!backend_.addMemory(initial_pages, max_pages))
        return false;
    extraMemories_.push_back(std::move(memory));
    return true;
}

std::int64_t
Sandbox::memoryGrow(unsigned memory, std::uint64_t delta_pages)
{
    ++stats_.growCalls;
    auto &clock = mmu_.clock();
    clock.tick(clock.nsToCycles(kGrowRuntimeNs));

    LinearMemory &mem =
        memory == 0 ? memory_ : extraMemories_.at(memory - 1);
    const std::uint64_t old_pages = mem.pages();
    const std::int64_t prev = mem.grow(delta_pages);
    if (prev < 0)
        return -1;
    backend_.grow(old_pages, mem.pages(), memory);
    if (memory != 0)
        return prev;
    // firstTouch clamps its mark to the size, so a touched last page did
    // not cover the page after it. That page is in bounds now, and an
    // access starting in the touched page can spill into it.
    if (!touched.empty() && touched.back())
        memory_.markDirty(std::min(memory_.size(),
                                   old_pages * kWasmPageSize + vm::kPageSize));
    touched.resize(memory_.size() / vm::kPageSize, 0);
    return prev;
}

void
Sandbox::flushCharge()
{
    mmu_.clock().tick(pendingMilli / 1000);
    pendingMilli %= 1000;
}

std::uint64_t
Sandbox::checkedOffset(std::uint64_t offset, std::uint32_t width, bool write)
{
    const AccessCheck check =
        backend_.checkAccess(offset, width, write, memory_);
    if (check.outcome == AccessOutcome::Trap)
        throw SandboxTrap(offset, width, write);
    if (check.outcome == AccessOutcome::Wrapped)
        ++stats_.wrappedAccesses;
    return check.offset;
}

LinearMemory &
Sandbox::checkMemory(unsigned memory, std::uint64_t offset,
                     std::uint32_t width, bool write)
{
    LinearMemory &mem = extraMemories_.at(memory - 1);
    if (backend_.bind(memory))
        ++stats_.rebinds;
    if (backend_.checkAccess(offset, width, write, mem, memory).outcome !=
        AccessOutcome::Ok)
        throw SandboxTrap(offset, width, write);
    return mem;
}

void
Sandbox::firstTouch(std::uint64_t page, std::uint64_t at,
                    std::uint32_t width, bool write)
{
    touched[page] = 1;
    // An access starts in a touched page and is at most a page wide, so
    // it can write into the next page without touching it (8 bytes
    // stored at 4094 write two bytes of page 1): the mark covers both.
    // Past the size there is nothing to cover until memoryGrow.
    memory_.markDirty(std::min(memory_.size(), (page + 2) * vm::kPageSize));
    // Access the backing virtual address so the Mmu charges the fault
    // and marks residency for the teardown experiments.
    mmu_.access(backend_.baseAddress() + at, width, write);
}

void
reclaim(vm::Mmu &mmu, const std::vector<Sandbox *> &sandboxes,
        ReclaimPolicy policy, std::size_t batch_size)
{
    if (policy == ReclaimPolicy::Stock) {
        // One madvise per instance, over its accessible memory.
        for (Sandbox *s : sandboxes) {
            mmu.madviseDontneed(s->backend().baseAddress(),
                                s->memory().size());
        }
        return;
    }

    // Batched: one madvise per run of @p batch_size sandboxes, spanning
    // from the lowest footprint to the highest — guard regions included.
    if (batch_size == 0)
        throw std::invalid_argument("reclaim: batch size 0");
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
            mmu.madviseDontneed(lo, hi - lo);
    }
}

} // namespace hfi::sfi
