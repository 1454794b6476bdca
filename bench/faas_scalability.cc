/**
 * @file
 * §6.3.2: scalability of sandbox creation.
 *
 * "We test this by measuring the number of 1 GiB Wasm sandboxes that
 *  can be created by Wasmtime when it is allowed to elide guard pages
 *  (by using HFI). When eliding guard pages, we find that Wasmtime can
 *  create up to 256,000 1 GiB sandboxes in a single process."
 *
 * We create backends (address-space footprints) until reservation
 * fails, for guard-page and HFI layouts, on the 48-bit address space
 * the paper's number implies. Backends are created directly — a full
 * Sandbox would also allocate host memory per instance, which is
 * irrelevant to the VA-exhaustion question.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "sfi/backend.h"
#include "sfi/sandbox.h"

namespace
{

using namespace hfi;

std::uint64_t
countInstances(bool use_hfi, unsigned va_bits)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock, va_bits);
    core::HfiContext ctx(clock);

    constexpr std::uint64_t kGiBPages = 16384; // 1 GiB of Wasm pages
    const sfi::BackendKind kind =
        use_hfi ? sfi::BackendKind::Hfi : sfi::BackendKind::GuardPages;
    std::vector<std::unique_ptr<sfi::Backend>> live;
    std::uint64_t count = 0;
    while (true) {
        auto backend = std::make_unique<sfi::Backend>(mmu, ctx, kind);
        if (!backend->create(1, kGiBPages))
            break;
        live.push_back(std::move(backend));
        ++count;
    }
    return count;
}

} // namespace

int
main()
{
    std::printf("Section 6.3.2: concurrent 1 GiB sandboxes before the "
                "virtual address space is full\n");
    for (unsigned bits : {47u, 48u}) {
        const std::uint64_t guard = countInstances(false, bits);
        const std::uint64_t hfi_count = countInstances(true, bits);
        std::printf("  %u-bit VA: guard pages %7lu sandboxes, "
                    "HFI (guards elided) %7lu sandboxes (%.0fx)\n",
                    bits, static_cast<unsigned long>(guard),
                    static_cast<unsigned long>(hfi_count),
                    static_cast<double>(hfi_count) /
                        static_cast<double>(guard));
    }
    std::printf("(paper: 256,000 1 GiB sandboxes with guard pages "
                "elided, vs the ~16K 8 GiB footprints of Section 2)\n");

    // §2's multi-memory footprint: "these can increase an instance's
    // resource footprint by another 8 GiB per-memory".
    {
        vm::VirtualClock clock;
        vm::Mmu mmu(clock, 48);
        core::HfiContext ctx(clock);
        constexpr std::uint64_t kGiBPages = 16384;
        sfi::Sandbox instance(mmu, ctx, sfi::BackendKind::Hfi,
                              sfi::paperCosts(sfi::BackendKind::Hfi),
                              {1, kGiBPages});
        for (int memory = 1; memory < 4; ++memory)
            instance.addMemory(1, kGiBPages);
        std::printf("\nMulti-memory footprint (4 memories, 1 GiB max "
                    "each):\n");
        std::printf("  guard pages: %5.0f GiB (8 GiB per memory, §2)\n",
                    4 * 8.0);
        std::printf("  HFI:         %5.0f GiB (exactly the declared "
                    "maxima)\n",
                    static_cast<double>(
                        mmu.addressSpace().reservedBytes()) /
                        (1ULL << 30));
    }
    return 0;
}
