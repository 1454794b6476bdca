/**
 * @file
 * §6.1's heap-growth microbenchmark:
 *
 * "we ran a simple benchmark in Wasmtime that grows the Wasm heap from
 *  a single page to 4 GiB in 64 KiB increments. In total, the
 *  mprotect() method takes 10.92 seconds, while HFI takes 370 ms, a
 *  difference of ~30x."
 *
 * We drive the backend's grow path directly (the LinearMemory byte
 * store is skipped so the harness itself does not allocate 4 GiB of
 * host RAM; the modeled costs are identical).
 */

#include <cstdio>

#include "sfi/backend.h"

int
main()
{
    using namespace hfi;

    constexpr std::uint64_t total_pages = 65536; // 4 GiB of Wasm pages
    // Per-grow runtime bookkeeping (memory_grow libcall + instance
    // table update), identical across schemes — see SandboxOptions.
    constexpr double grow_runtime_ns = 5640.0;

    double guard_sec = 0, hfi_sec = 0;

    {
        vm::VirtualClock clock;
        vm::Mmu mmu(clock);
        core::HfiContext ctx(clock);
        sfi::Backend backend(mmu, ctx, sfi::BackendKind::GuardPages);
        if (!backend.create(1, total_pages))
            return 1;
        const double t0 = clock.nowNs();
        for (std::uint64_t p = 1; p < total_pages; ++p) {
            clock.tick(clock.nsToCycles(grow_runtime_ns));
            backend.grow(p, p + 1);
        }
        guard_sec = (clock.nowNs() - t0) / 1e9;
    }

    {
        vm::VirtualClock clock;
        vm::Mmu mmu(clock);
        core::HfiContext ctx(clock);
        sfi::Backend backend(mmu, ctx, sfi::BackendKind::Hfi);
        if (!backend.create(1, total_pages))
            return 1;
        const double t0 = clock.nowNs();
        for (std::uint64_t p = 1; p < total_pages; ++p) {
            clock.tick(clock.nsToCycles(grow_runtime_ns));
            backend.grow(p, p + 1);
        }
        hfi_sec = (clock.nowNs() - t0) / 1e9;
    }

    std::printf("Section 6.1: heap growth, 1 page -> 4 GiB in 64 KiB "
                "increments (%lu grows)\n",
                static_cast<unsigned long>(total_pages - 1));
    std::printf("  guard pages (mprotect): %6.2f s   (paper: 10.92 s)\n",
                guard_sec);
    std::printf("  HFI (hfi_set_region):   %6.0f ms  (paper: 370 ms)\n",
                hfi_sec * 1e3);
    std::printf("  speedup:                %6.1fx    (paper: ~30x)\n",
                guard_sec / hfi_sec);
    return 0;
}
