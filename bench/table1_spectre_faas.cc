/**
 * @file
 * Table 1: impact of HFI Spectre protection on tail latency, versus
 * Swivel — "the fastest software-based Spectre mitigation" — on four
 * Wasm FaaS workloads behind a Rocket-style webserver.
 *
 * Paper's headline: "Swivel increased tail latency by 9%-42%. HFI's
 * increased tail latency by 0%-2%", with essentially no binary bloat
 * for HFI and ~0.6 MiB for Swivel (except the data-dominated image-
 * classification binary).
 */

#include <cstdio>

#include "serve/engine.h"
#include "workloads/table1.h"

namespace
{

using namespace hfi;

struct Row
{
    serve::ServeResult result;
    std::uint64_t binaryBytes;
};

Row
run(const workloads::Table1Workload &workload, serve::Scheme scheme)
{
    return {serve::ServeEngine(workloads::table1Config(workload, scheme),
                               workload.handler)
                .run(),
            workloads::table1BinaryBytes(workload, scheme)};
}

void
printRow(serve::Scheme scheme, const Row &row)
{
    const serve::ServeResult &res = row.result;
    std::printf("  %-16s avg %8.2f ms   p50 %8.2f   p95 %8.2f   "
                "p99 %8.2f   p99.9 %8.2f ms   thru %8.1f r/s   "
                "bin %5.1f MiB\n",
                serve::schemeName(scheme), res.meanLatencyNs / 1e6,
                res.latency.p50 / 1e6, res.latency.p95 / 1e6,
                res.latency.p99 / 1e6, res.latency.p999 / 1e6,
                res.throughputRps,
                static_cast<double>(row.binaryBytes) / (1 << 20));
}

} // namespace

int
main()
{
    using serve::Scheme;
    std::printf("Table 1: impact of Spectre protection on FaaS tail "
                "latency (100 closed-loop clients)\n");
    for (const auto &workload : workloads::table1Workloads()) {
        const Row unsafe_run = run(workload, Scheme::Unsafe);
        const Row hfi_run = run(workload, Scheme::HfiNative);
        const Row soe_run = run(workload, Scheme::HfiSwitchOnExit);
        const Row swivel_run = run(workload, Scheme::Swivel);

        std::printf("\n%s\n", workload.name.c_str());
        printRow(Scheme::Unsafe, unsafe_run);
        printRow(Scheme::HfiNative, hfi_run);
        printRow(Scheme::HfiSwitchOnExit, soe_run);
        printRow(Scheme::Swivel, swivel_run);
        const double unsafe_tail = unsafe_run.result.latency.p99;
        std::printf("  tail increase: HFI %+0.2f%%, switch-on-exit "
                    "%+0.2f%%, Swivel %+0.1f%%\n",
                    100.0 * (hfi_run.result.latency.p99 / unsafe_tail - 1.0),
                    100.0 * (soe_run.result.latency.p99 / unsafe_tail - 1.0),
                    100.0 *
                        (swivel_run.result.latency.p99 / unsafe_tail - 1.0));
    }
    std::printf("\n(paper: HFI tail increase 0%%-2%%; Swivel 9%%-42%% "
                "with up to ~73%% on templated HTML average latency)\n");
    return 0;
}
