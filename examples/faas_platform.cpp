/**
 * @file
 * A multi-tenant FaaS platform (§3.3's motivating example, §6.3): one
 * process hosts many tenant sandboxes; each request instantiates a
 * tenant, runs its handler with Spectre-protected HFI transitions, and
 * instances are reclaimed with HFI's batched teardown.
 *
 * Build & run:  ./build/examples/faas_platform
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "faas/latency.h"
#include "sfi/runtime.h"
#include "workloads/faas_workloads.h"

using namespace hfi;

int
main()
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock, 48);
    core::HfiContext ctx(clock);

    sfi::RuntimeConfig config;
    config.backend = sfi::BackendKind::Hfi; // guard pages elided,
                                            // serialized transitions
    sfi::Runtime runtime(mmu, ctx, config);

    std::printf("Tenant capacity in this process (1 MiB instances): "
                "%lu; with guard pages it would be %lu\n",
                static_cast<unsigned long>(
                    runtime.addressSpaceCapacity(1 << 20)),
                static_cast<unsigned long>((mmu.addressSpace().usableBytes()) /
                                           ((4ULL << 30) + (1 << 20))));

    // Serve a burst of requests: each one spins up a tenant instance,
    // transcodes an XML order document to JSON, and finishes.
    constexpr int kRequests = 256;
    faas::LatencyRecorder latencies;
    std::vector<std::unique_ptr<sfi::Sandbox>> spent;
    std::vector<sfi::Sandbox *> raw;

    const double start = clock.nowNs();
    for (int r = 0; r < kRequests; ++r) {
        const double t0 = clock.nowNs();
        auto instance = runtime.createSandbox({1, 16});
        if (!instance) {
            std::printf("address space exhausted!\n");
            return 1;
        }
        const std::string xml = workloads::faas::makeXmlDocument(
            40, static_cast<std::uint32_t>(r));
        instance->memory().writeBytes(64, xml.data(), xml.size());
        instance->invoke([&](sfi::Sandbox &s) {
            workloads::faas::xmlToJson(s, 64, xml.size());
        });
        latencies.add(clock.nowNs() - t0);

        // Spent instances are reclaimed in batches: HFI's guard-free
        // layout makes one madvise cover a whole run of heaps (§6.3.1).
        raw.push_back(instance.get());
        spent.push_back(std::move(instance));
        if (raw.size() == 64) {
            runtime.reclaim(raw, sfi::ReclaimPolicy::Batched, 64);
            raw.clear();
            spent.clear();
        }
    }
    const double total = clock.nowNs() - start;

    std::printf("\nServed %d requests in %.2f virtual ms "
                "(%.0f requests/second)\n",
                kRequests, total / 1e6, kRequests * 1e9 / total);
    std::printf("  per-request latency: mean %.1f us, p50 %.1f us, "
                "p99 %.1f us\n",
                latencies.mean() / 1e3, latencies.percentile(50) / 1e3,
                latencies.percentile(99) / 1e3);
    std::printf("  madvise syscalls for teardown: %lu (batched; stock "
                "would be %d)\n",
                static_cast<unsigned long>(mmu.stats().madviseCalls),
                kRequests);
    std::printf("  HFI transitions: %lu enters, %lu serializations\n",
                static_cast<unsigned long>(ctx.stats().enters),
                static_cast<unsigned long>(ctx.stats().serializations));
    return 0;
}
