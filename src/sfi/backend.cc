#include "sfi/backend.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "core/checker.h"

namespace hfi::sfi
{

BackendCosts
paperCosts(BackendKind kind)
{
    // Guard pages check nothing per access (in steady-state SPEC-style
    // code the out-of-order core hides the base add: Fig 3 shows guard
    // pages ~= HFI) and pin one register, §6.1's 2.25%. A bounds
    // check's compare+branch is two µops, part hidden by the out-of-
    // order window: 1200 reproduces Fig 3's 18.7-48.3% spread over
    // kernels of differing access density; base + bound pin two
    // registers, §6.1's 2.40%. A mask is one AND and one register. HFI
    // checks in parallel with the dtb lookup and pins nothing; its
    // transitions are hfi_enter/hfi_exit, charged by the HfiContext.
    switch (kind) {
      case BackendKind::GuardPages: return {12, 0, 23};
      case BackendKind::BoundsCheck: return {12, 1200, 24};
      case BackendKind::Mask: return {12, 600, 23};
      case BackendKind::Hfi: break;
    }
    return {0, 0, 0};
}

std::uint64_t
footprintBytes(BackendKind kind, std::uint64_t heap_bytes)
{
    switch (kind) {
      case BackendKind::GuardPages: return heap_bytes + kGuardBytes;
      case BackendKind::Mask: return std::bit_ceil(heap_bytes);
      case BackendKind::BoundsCheck:
      case BackendKind::Hfi: break;
    }
    return heap_bytes;
}

Backend::Backend(vm::Mmu &mmu, core::HfiContext &ctx, BackendKind kind)
    : Backend(mmu, ctx, kind, paperCosts(kind))
{
}

Backend::Backend(vm::Mmu &mmu, core::HfiContext &ctx, BackendKind kind,
                 BackendCosts costs)
    : mmu(mmu), ctx(ctx), kind_(kind), costs_(costs),
      heap_(&ctx.registerFile().flat(core::kFirstExplicitRegion))
{
}

Backend::~Backend()
{
    destroy();
}

void
Backend::program(unsigned index, vm::VAddr region_base, std::uint64_t bytes)
{
    core::ExplicitDataRegion region;
    region.baseAddress = region_base;
    region.bound = bytes; // multiples of 64 KiB: large-region ok
    region.permRead = true;
    region.permWrite = true;
    region.isLargeRegion = true;
    ctx.setRegion(core::kFirstExplicitRegion + index, region);
}

void
Backend::programMemory(unsigned slot, unsigned memory)
{
    const ExtraMemory &extra = extras_[memory - 1];
    program(1 + slot, extra.base, extra.accessibleBytes);
}

bool
Backend::create(std::uint64_t initial_pages, std::uint64_t max_pages)
{
    reservation = footprintBytes(kind_, max_pages * kWasmPageSize);
    // The mask's power-of-two region is aligned to itself, so one AND
    // keeps an address inside it.
    const std::uint64_t align =
        kind_ == BackendKind::Mask ? reservation : kWasmPageSize;
    auto addr = mmu.mmap(reservation, align);
    if (!addr)
        return false;
    base = *addr;
    live = true;
    grow(0, initial_pages);
    return true;
}

void
Backend::destroy()
{
    if (!live)
        return;
    if (kind_ == BackendKind::Hfi)
        ctx.clearRegion(core::kFirstExplicitRegion);
    // A register left describing a freed range would admit accesses to
    // whatever footprint is placed there next.
    for (unsigned slot = 0; binder_ && slot < binder_->slots(); ++slot) {
        if (binder_->memoryAt(slot) != LruBinder::kNone)
            ctx.clearRegion(core::kFirstExplicitRegion + 1 + slot);
    }
    binder_.reset();
    for (const ExtraMemory &extra : extras_)
        mmu.munmap(extra.base);
    extras_.clear();
    mmu.munmap(base);
    live = false;
    base = 0;
    reservation = 0;
}

bool
Backend::addMemory(std::uint64_t initial_pages, std::uint64_t max_pages)
{
    if (kind_ != BackendKind::Hfi)
        throw std::invalid_argument(
            "Backend::addMemory: multi-memory needs HFI's explicit regions");
    if (!live)
        return false;
    // Guard-free: guard pages would add 4 GiB per memory (§2).
    auto addr = mmu.mmap(footprintBytes(kind_, max_pages * kWasmPageSize),
                         kWasmPageSize);
    if (!addr)
        return false;
    if (!binder_)
        binder_ = std::make_unique<LruBinder>(core::kNumExplicitRegions - 1);
    extras_.push_back({*addr, initial_pages * kWasmPageSize});
    return true;
}

bool
Backend::bind(unsigned memory)
{
    const LruBinder::Binding binding = binder_->bind(memory);
    if (!binding.hit) // serializes inside the hybrid sandbox (§4.3)
        programMemory(binding.slot, memory);
    return !binding.hit;
}

void
Backend::grow(std::uint64_t old_pages, std::uint64_t new_pages,
              unsigned memory)
{
    const std::uint64_t old_bytes = old_pages * kWasmPageSize;
    const std::uint64_t new_bytes = new_pages * kWasmPageSize;
    if (kind_ == BackendKind::Hfi) {
        // §6.1: "HFI can just update a region's bound registers" — a
        // single hfi_set_region replaces the mprotect below.
        if (memory == 0) {
            accessibleBytes = new_bytes;
            program(0, base, new_bytes);
        } else {
            extras_[memory - 1].accessibleBytes = new_bytes;
            if (const int slot = binder_->slotOf(memory); slot >= 0)
                programMemory(static_cast<unsigned>(slot), memory);
        }
        return;
    }
    // memory_grow flips the newly accessible pages from PROT_NONE to
    // read-write; this is the mprotect() whose fixed + shootdown +
    // per-page cost dominates §6.1's 10.92 s heap-growth measurement.
    // (A bounds check's bound variable updates for free, but its pages
    // need the same backing.)
    if (new_bytes > old_bytes)
        mmu.mprotect(base + old_bytes, new_bytes - old_bytes);
}

AccessCheck
Backend::checkAccess(std::uint64_t offset, std::uint32_t width, bool write,
                     const LinearMemory &mem, unsigned memory)
{
    if (kind_ == BackendKind::Hfi) {
        // The real bit-level hmov check, with the hardware's precise
        // trap reasons, through the memory's register.
        const int slot = memory == 0 ? -1 : binder_->slotOf(memory);
        assert(memory == 0 || slot >= 0);
        core::HmovOperands ops;
        ops.index = static_cast<std::int64_t>(offset);
        ops.scale = 1;
        ops.displacement = 0;
        ops.width = width;
        const core::HmovResult res = core::AccessChecker::checkHmov(
            ctx, static_cast<unsigned>(1 + slot), ops, write);
        if (res.ok)
            return {AccessOutcome::Ok, offset};
        lastTrap = res.reason;
        return {AccessOutcome::Trap, offset};
    }
    // Guard pages: the Wasm compiler restricts accesses to u32 address
    // + u32 offset, so the effective offset always lands inside the
    // reservation, in accessible pages or in PROT_NONE ones (SIGSEGV).
    // Bounds checks: the emitted compare+branch to a trap stub. Either
    // way the rule is the accessible size; the cycles are charged on
    // the Sandbox hot path (costs()).
    if (mem.inBounds(offset, width))
        return {AccessOutcome::Ok, offset};
    if (kind_ != BackendKind::Mask)
        return {AccessOutcome::Trap, offset};
    // Mask: no trap, the AND forces the address into the accessible
    // region. We mask to the largest power of two not exceeding the
    // accessible size (which divides the power-of-two reservation, so
    // this is also the reservation's mask), and pull an access that
    // would straddle its end back by the overhang, so the wrapped
    // access (including its width) always lands on mapped memory — the
    // silent-corruption behaviour §2 describes. Only a memory too small
    // to hold the access at all faults.
    const std::uint64_t span = std::bit_floor(mem.size());
    if (width > span)
        return {AccessOutcome::Trap, offset};
    const std::uint64_t at = offset & (span - 1);
    return {AccessOutcome::Wrapped, std::min<std::uint64_t>(at, span - width)};
}

void
Backend::rebindRegions()
{
    // Warm dispatch on a core whose register file was context-switched
    // since this instance last ran: reload the heap region descriptor
    // before the (region-locking) hfi_enter. One hfi_set_region, the
    // §6.1 "just update the bound registers" cost, per region.
    if (kind_ != BackendKind::Hfi || !live)
        return;
    program(0, base, accessibleBytes);
    // checkAccess trusts whatever a bound memory's register holds, so it
    // is reloaded with the heap's.
    for (unsigned slot = 0; binder_ && slot < binder_->slots(); ++slot) {
        if (binder_->memoryAt(slot) != LruBinder::kNone)
            programMemory(slot, binder_->memoryAt(slot));
    }
}

void
Backend::enter()
{
    mmu.clock().tick(costs_.transitionCycles);
    if (kind_ != BackendKind::Hfi)
        return;
    // Each transition re-loads the region metadata from memory into the
    // HFI registers (§6.4.2) and enters a hybrid sandbox, serialized for
    // Spectre protection (§3.4).
    rebindRegions();
    core::SandboxConfig sandbox;
    sandbox.isHybrid = true;
    sandbox.isSerialized = true;
    ctx.enter(sandbox);
}

void
Backend::exit()
{
    if (kind_ == BackendKind::Hfi)
        ctx.exit();
    mmu.clock().tick(costs_.transitionCycles);
}

} // namespace hfi::sfi
