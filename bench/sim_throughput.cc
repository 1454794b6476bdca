/**
 * @file
 * Simulator throughput: simulated-instructions-per-second of the
 * functional core and the cycle-level pipeline on the Fig 2 kernels,
 * in both protection renderings (hardware HFI and compiler emulation).
 *
 * This is the repo's perf-trajectory baseline: every interpreter
 * hot-path change (fetch indexing, paged memory, region-check
 * flattening) must move these numbers, and regressions show up as a
 * drop in the JSON this bench emits (BENCH_sim_throughput.json).
 *
 * Simulated work per rep is deterministic (seeded kernels on virtual
 * state); only host wall time varies, so instructions/sec is an honest
 * measure of interpreter speed. Pipeline rows also report the µops
 * dispatched per rep and the host ns per dispatched µop: the pipeline
 * executes every wrong-path µop, so it pays per dispatched µop, and a
 * kernel that squashes most of what it dispatches (`switch`) shows a
 * low sim-insts/s at an ordinary per-µop cost.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/json_writer.h"
#include "sim/functional.h"
#include "sim/kernels.h"
#include "sim/pipeline.h"

namespace
{

using namespace hfi::sim;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kScale = 2;
constexpr std::uint32_t kStageSeed = 42;

/** One measured configuration. */
struct Row
{
    std::string kernel;
    std::string mode;
    std::string core;
    std::uint64_t instructionsPerRep = 0;
    std::uint64_t reps = 0;
    double hostNs = 0;
    double ips = 0; ///< simulated instructions per host second
    /** µops dispatched per rep, wrong-path ones included (pipeline rows
        only): the pipeline pays its host cost per dispatched µop. */
    std::uint64_t dispatchedPerRep = 0;
    /** Event-loop cycle attribution (pipeline rows only; deterministic
        per rep, all-zero when built with HFI_OBS=OFF). */
    PipelineProfile profile{};

    double
    nsPerDispatchedUop() const
    {
        return dispatchedPerRep == 0
                   ? 0
                   : hostNs / (static_cast<double>(reps) *
                               static_cast<double>(dispatchedPerRep));
    }
};

double
elapsedNs(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/** Host-seconds to accumulate per configuration (--quick shrinks it). */
double measureWindowNs = 0.15e9;

/** Repeat @p rep until the measurement window has accumulated. */
template <typename Rep>
Row
measure(const hfi::sim::kernels::Kernel &kernel, kernels::Mode mode,
        const char *core, Rep rep)
{
    Row row;
    row.kernel = kernel.name;
    row.mode = mode == kernels::Mode::HfiHardware ? "hw" : "emu";
    row.core = core;

    // Warm one rep (page faults, code layout) before timing.
    row.instructionsPerRep = rep();

    const auto start = Clock::now();
    double ns = 0;
    std::uint64_t reps = 0;
    do {
        rep();
        ++reps;
        ns = elapsedNs(start);
    } while (ns < measureWindowNs);
    row.reps = reps;
    row.hostNs = ns;
    row.ips = static_cast<double>(row.instructionsPerRep) *
              static_cast<double>(reps) * 1e9 / ns;
    return row;
}

Row
measureFunctional(const hfi::sim::kernels::Kernel &kernel, kernels::Mode mode)
{
    const Program prog = kernel.build(mode, kScale);
    return measure(kernel, mode, "functional", [&]() {
        ArchState state;
        state.pc = prog.base();
        SimMemory mem;
        kernel.stage(mem, kScale, kStageSeed);
        return FunctionalCore::run(prog, state, mem);
    });
}

Row
measurePipeline(const hfi::sim::kernels::Kernel &kernel, kernels::Mode mode)
{
    const Program prog = kernel.build(mode, kScale);
    PipelineProfile prof{};
    std::uint64_t dispatched = 0;
    Row row = measure(kernel, mode, "pipeline", [&]() {
        Pipeline pipe(prog);
        kernel.stage(pipe.memory(), kScale, kStageSeed);
        const PipelineResult res = pipe.run(500'000'000);
        // Identical every rep (seeded virtual state), so keeping the
        // last one loses nothing.
        prof = pipe.profile();
        dispatched = pipe.stats().dispatched;
        return res.instructions;
    });
    row.profile = prof;
    row.dispatchedPerRep = dispatched;
    return row;
}

double
geomeanIps(const std::vector<Row> &rows, const char *core)
{
    double log_sum = 0;
    int n = 0;
    for (const Row &r : rows) {
        if (r.core != core || r.ips <= 0)
            continue;
        log_sum += std::log(r.ips);
        ++n;
    }
    return n ? std::exp(log_sum / n) : 0;
}

void
emitJson(const std::vector<Row> &rows, double func_geo, double pipe_geo)
{
    hfi::obs::JsonWriter jw;
    jw.beginObject();
    jw.field("bench", "sim_throughput");
    jw.schemaVersion();
    jw.field("scale", kScale);
    jw.key("rows").beginArray();
    for (const Row &r : rows) {
        jw.beginObject();
        jw.field("core", r.core);
        jw.field("kernel", r.kernel);
        jw.field("mode", r.mode);
        jw.field("instructions_per_rep", r.instructionsPerRep);
        jw.field("reps", r.reps);
        jw.field("host_ns", r.hostNs, "%.0f");
        jw.field("sim_insts_per_sec", r.ips, "%.0f");
        if (r.core == "pipeline") {
            jw.field("dispatched_per_rep", r.dispatchedPerRep);
            jw.field("host_ns_per_dispatched_uop", r.nsPerDispatchedUop(),
                     "%.2f");
            // Where the event-driven loop spent (and skipped) its
            // cycles — attribution the loop used to discard.
            jw.field("active_cycles", r.profile.activeCycles);
            jw.field("skipped_cycles", r.profile.skippedCycles);
            jw.field("skips_to_commit", r.profile.skipsToCommit);
            jw.field("skips_to_resolve", r.profile.skipsToResolve);
            jw.field("skips_to_fetch", r.profile.skipsToFetch);
        }
        jw.endObject();
    }
    jw.endArray();
    // The CI regression gate keys on these two names; keep them.
    jw.field("functional_geomean_ips", func_geo, "%.0f");
    jw.field("pipeline_geomean_ips", pipe_geo, "%.0f");
    jw.endObject();

    FILE *f = std::fopen("BENCH_sim_throughput.json", "w");
    if (!f) {
        std::perror("BENCH_sim_throughput.json");
        return;
    }
    std::fputs(jw.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    // --quick: shorter measurement window (CI smoke). Every kernel
    // still gets a pipeline row — the CI regression gate compares the
    // pipeline geomean, so it must cover the full suite.
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            measureWindowNs = 0.05e9;

    std::printf("Simulator throughput (simulated instructions per host "
                "second), Fig 2 kernels, scale %llu\n\n",
                static_cast<unsigned long long>(kScale));
    std::printf("%-12s %-16s %-4s %12s %6s %12s %12s %9s\n", "core",
                "kernel", "mode", "insts/rep", "reps", "sim-insts/s",
                "uops/rep", "ns/uop");

    std::vector<Row> rows;
    auto report = [&rows](Row row) {
        std::printf("%-12s %-16s %-4s %12llu %6llu %12.3e", row.core.c_str(),
                    row.kernel.c_str(), row.mode.c_str(),
                    static_cast<unsigned long long>(row.instructionsPerRep),
                    static_cast<unsigned long long>(row.reps), row.ips);
        if (row.core == "pipeline")
            std::printf(" %12llu %9.2f\n",
                        static_cast<unsigned long long>(row.dispatchedPerRep),
                        row.nsPerDispatchedUop());
        else
            std::printf(" %12s %9s\n", "-", "-");
        rows.push_back(std::move(row));
    };

    for (const auto &kernel : hfi::sim::kernels::suite()) {
        for (const auto mode : {hfi::sim::kernels::Mode::HfiHardware,
                                hfi::sim::kernels::Mode::HfiEmulation}) {
            report(measureFunctional(kernel, mode));
            report(measurePipeline(kernel, mode));
        }
    }

    const double func_geo = geomeanIps(rows, "functional");
    const double pipe_geo = geomeanIps(rows, "pipeline");
    std::printf("\nfunctional geomean: %.3e sim-insts/s\n", func_geo);
    std::printf("pipeline   geomean: %.3e sim-insts/s\n", pipe_geo);
    emitJson(rows, func_geo, pipe_geo);
    std::printf("wrote BENCH_sim_throughput.json\n");
    return 0;
}
