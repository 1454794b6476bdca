/**
 * @file
 * Figure 3: SPEC INT 2006 (Wasm-compatible subset) normalized against
 * guard pages.
 *
 * "Bounds-checking incurs overheads between 18.74% and 48.34%, with
 *  median and geometric mean 34.67%. On the other hand, HFI takes
 *  between 92.51% and 107.45% the execution time of guard pages, with
 *  median 95.88% (a speedup of 4.3%) and geometric mean 96.85% (a
 *  speedup of 3.25%)."
 *
 * Each SPEC-analogue kernel runs under the three isolation backends on
 * the virtual clock; runtimes are normalized to the guard-page run.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "sfi/sandbox.h"
#include "workloads/spec_like.h"

namespace
{

using namespace hfi;

double
runOne(const workloads::Workload &workload, sfi::BackendKind kind,
       std::uint64_t scale)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    sfi::SandboxOptions opts;
    // SPEC-style runs size their heap once up front and then run long
    // (§6.1: "long-running applications that do not test HFI's fast
    // transitions, but do show its low cost in steady state") — so the
    // initial heap covers the working set and growth costs never
    // dominate.
    opts.initialPages = 64;
    opts.icacheSensitivity = workload.icacheSensitivity;
    sfi::Sandbox sandbox(mmu, ctx, kind, opts);
    if (!sandbox.valid())
        return -1;

    const double t0 = clock.nowNs();
    sandbox.invoke([&](sfi::Sandbox &s) { workload.run(s, scale, 1234); });
    return clock.nowNs() - t0;
}

double
geomean(const std::vector<double> &v)
{
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

int
main()
{
    std::printf("Figure 3: SPEC INT 2006 results normalized against guard "
                "pages\n");
    std::printf("%-16s %14s %14s %14s\n", "benchmark", "guard pages",
                "bounds-checks", "HFI");
    std::printf("%.*s\n", 62,
                "--------------------------------------------------------"
                "------");

    std::vector<double> bounds_norm, hfi_norm;
    for (const auto &workload : hfi::workloads::spec::suite()) {
        const double guard =
            runOne(workload, hfi::sfi::BackendKind::GuardPages, 2);
        const double bounds =
            runOne(workload, hfi::sfi::BackendKind::BoundsCheck, 2);
        const double hfi_time =
            runOne(workload, hfi::sfi::BackendKind::Hfi, 2);
        if (guard <= 0 || bounds <= 0 || hfi_time <= 0)
            return 1;
        bounds_norm.push_back(bounds / guard);
        hfi_norm.push_back(hfi_time / guard);
        std::printf("%-16s %13.1f%% %13.1f%% %13.1f%%\n",
                    workload.name.c_str(), 100.0, 100.0 * bounds / guard,
                    100.0 * hfi_time / guard);
    }

    std::printf("%.*s\n", 62,
                "--------------------------------------------------------"
                "------");
    std::printf("bounds-checking: %.1f%% - %.1f%%, median %.1f%%, "
                "geomean %.1f%% (paper: 118.7%%-148.3%%, geomean 134.7%%)\n",
                100 * *std::min_element(bounds_norm.begin(),
                                        bounds_norm.end()),
                100 * *std::max_element(bounds_norm.begin(),
                                        bounds_norm.end()),
                100 * median(bounds_norm), 100 * geomean(bounds_norm));
    std::printf("HFI:             %.1f%% - %.1f%%, median %.1f%%, "
                "geomean %.1f%% (paper: 92.5%%-107.5%%, geomean 96.9%%)\n",
                100 * *std::min_element(hfi_norm.begin(), hfi_norm.end()),
                100 * *std::max_element(hfi_norm.begin(), hfi_norm.end()),
                100 * median(hfi_norm), 100 * geomean(hfi_norm));
    return 0;
}
