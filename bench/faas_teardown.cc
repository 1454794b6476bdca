/**
 * @file
 * §6.3.1: cost of sandbox setup and teardown on a FaaS platform.
 *
 * "a custom FaaS benchmark that creates 2000 sandboxes, executes a
 *  trivial short-lived workload on each (writes some constant data to
 *  the sandbox's memory) and then tears down the sandboxes... stock
 *  Wasmtime has a per-sandbox teardown cost of 25.7 µs, HFI-Wasmtime
 *  took 23.1 µs (a 10.1% improvement), and non-HFI batched teardown
 *  took 31.1 µs."
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "sfi/sandbox.h"

namespace
{

using namespace hfi;

/** Build 2000 instances, run the trivial workload, time the reclaim. */
double
teardownPerSandboxUs(sfi::BackendKind kind, sfi::ReclaimPolicy policy,
                     std::size_t batch)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock, 48); // 2000 x 8 GiB needs the wide VA
    core::HfiContext ctx(clock);

    // FaaS instances: Wasmtime reserves the full 4 GiB heap + 4 GiB
    // guard per 32-bit memory regardless of use; HFI instances reserve
    // only what the tenant's 1 MiB max heap needs, so their heaps are
    // adjacent.
    const sfi::SandboxOptions opts{
        1, kind == sfi::BackendKind::GuardPages ? 65536u : 16u};

    constexpr int kSandboxes = 2000;
    std::vector<std::unique_ptr<sfi::Sandbox>> owned;
    std::vector<sfi::Sandbox *> raw;
    owned.reserve(kSandboxes);
    for (int i = 0; i < kSandboxes; ++i) {
        auto sandbox = std::make_unique<sfi::Sandbox>(mmu, ctx, kind, opts);
        if (!sandbox->valid()) {
            std::fprintf(stderr, "address space exhausted at %d\n", i);
            return -1;
        }
        // The trivial request: write constant data over 64 KiB.
        sandbox->invoke([](sfi::Sandbox &s) {
            for (std::uint64_t off = 0; off < 64 * 1024; off += 4096)
                s.store<std::uint64_t>(off, 0x746c7561666564ULL);
        });
        raw.push_back(sandbox.get());
        owned.push_back(std::move(sandbox));
    }

    const double t0 = clock.nowNs();
    sfi::reclaim(mmu, raw, policy, batch);
    return (clock.nowNs() - t0) / 1e3 / kSandboxes;
}

} // namespace

int
main()
{
    const double stock = teardownPerSandboxUs(
        sfi::BackendKind::GuardPages, sfi::ReclaimPolicy::Stock, 1);
    const double hfi_batched = teardownPerSandboxUs(
        sfi::BackendKind::Hfi, sfi::ReclaimPolicy::Batched, 32);
    const double guard_batched = teardownPerSandboxUs(
        sfi::BackendKind::GuardPages, sfi::ReclaimPolicy::Batched, 32);
    if (stock < 0 || hfi_batched < 0 || guard_batched < 0)
        return 1;

    std::printf("Section 6.3.1: per-sandbox teardown cost "
                "(2000 sandboxes, trivial workload)\n");
    std::printf("  stock (one madvise per sandbox):        %5.1f us  "
                "(paper: 25.7 us)\n",
                stock);
    std::printf("  HFI-wasmtime (batched, guards elided):  %5.1f us  "
                "(paper: 23.1 us, -10.1%%)\n",
                hfi_batched);
    std::printf("  non-HFI batched (guards walked):        %5.1f us  "
                "(paper: 31.1 us)\n",
                guard_batched);
    std::printf("  HFI improvement over stock:             %5.1f%%\n",
                100.0 * (1.0 - hfi_batched / stock));

    std::printf("\nBatch-width sweep (HFI, guards elided):\n");
    for (std::size_t batch : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul, 64ul}) {
        const double us = teardownPerSandboxUs(
            sfi::BackendKind::Hfi, sfi::ReclaimPolicy::Batched, batch);
        std::printf("  batch=%-3zu %5.1f us/sandbox\n", batch, us);
    }
    return 0;
}
