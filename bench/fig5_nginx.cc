/**
 * @file
 * §6.4.2 / Figure 5: overhead of the native sandbox — NGINX serving
 * encrypted content with OpenSSL session keys protected by HFI or MPK.
 *
 * "We observe that HFI's native sandbox has a low overhead that ranges
 *  from 2.9% to 6.1%. HFI's overhead is slightly larger than MPK-based
 *  protections, which range from 1.9% to 5.3%. This is because HFI
 *  takes a few cycles to move metadata from memory to HFI registers on
 *  each transition."
 */

#include <cstdio>

#include "nginx/server.h"

namespace
{

using namespace hfi;

double
throughput(nginx::SessionProtection protection, std::uint64_t file_bytes)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    mpk::MpkDomainManager mpk_mgr(mmu);
    syscall::MiniKernel kernel(clock);

    nginx::NginxServer server(mmu, ctx, mpk_mgr, kernel, protection);
    server.addFile("/payload", file_bytes, 7);
    return server.serve("/payload", 400).throughputRps();
}

} // namespace

int
main()
{
    std::printf("Figure 5: NGINX throughput with protected session keys "
                "(requests/second, single core)\n");
    std::printf("%-10s %12s %12s %12s %10s %10s\n", "file size", "unsafe",
                "MPK", "HFI", "MPK ovh", "HFI ovh");
    std::printf("%.*s\n", 72,
                "--------------------------------------------------------"
                "----------------");

    double hfi_min = 1e9, hfi_max = 0, mpk_min = 1e9, mpk_max = 0;
    for (std::uint64_t kib : {0ULL, 1ULL, 2ULL, 4ULL, 8ULL, 16ULL, 32ULL,
                              64ULL, 128ULL}) {
        const std::uint64_t bytes = kib * 1024;
        const double none =
            throughput(nginx::SessionProtection::None, bytes);
        const double mpk_rps =
            throughput(nginx::SessionProtection::Mpk, bytes);
        const double hfi_rps =
            throughput(nginx::SessionProtection::Hfi, bytes);
        const double mpk_ovh = (none / mpk_rps - 1.0) * 100.0;
        const double hfi_ovh = (none / hfi_rps - 1.0) * 100.0;
        hfi_min = std::min(hfi_min, hfi_ovh);
        hfi_max = std::max(hfi_max, hfi_ovh);
        mpk_min = std::min(mpk_min, mpk_ovh);
        mpk_max = std::max(mpk_max, mpk_ovh);
        std::printf("%7luk %12.0f %12.0f %12.0f %9.1f%% %9.1f%%\n",
                    static_cast<unsigned long>(kib), none, mpk_rps,
                    hfi_rps, mpk_ovh, hfi_ovh);
    }
    std::printf("%.*s\n", 72,
                "--------------------------------------------------------"
                "----------------");
    std::printf("HFI overhead: %.1f%% - %.1f%%  (paper: 2.9%% - 6.1%%)\n",
                hfi_min, hfi_max);
    std::printf("MPK overhead: %.1f%% - %.1f%%  (paper: 1.9%% - 5.3%%)\n",
                mpk_min, mpk_max);
    return 0;
}
