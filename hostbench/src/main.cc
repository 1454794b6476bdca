/**
 * @file
 * hostbench: host-clock benchmark of the serving engine, the sandbox
 * access path, the FaaS workloads and the simulator.
 *
 *   hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--spans FILE]
 *
 * Set-up (input generation, program build, warm-up) runs five times;
 * setup_s is the median. Then fixed-size rounds of the workload run
 * back to back for S seconds. With --trace 0 every round is untraced
 * and the end-to-end metrics are reported; with --trace 1 rounds two
 * and three are traced (A/B/B/A, then untraced to the end) and the
 * per-layer metrics are read off their spans, which --spans writes out
 * as CSV. The in-program tracer stays off in both (EngineConfig::trace
 * is never set).
 *
 * Times are reported at the reference host speed (see Calibration in
 * trace.h): each cell's host seconds times the speed measured around
 * it. The plain host-second figures are printed alongside.
 *
 * Human-readable lines go first; the last line of standard output is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}. The
 * exit code is nonzero when any output check failed.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace
{

using namespace hostbench;

constexpr int kSetups = 5;

struct Args
{
    std::string workload;
    std::string spansPath; ///< where --trace 1 writes its spans
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] [--spans FILE]\n"
                 "workloads:",
                 why);
    for (const auto &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--spans") {
            a.spansPath = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (!(a.seconds > 0 && a.seconds <= 3600))
                usage("--seconds must be in (0, 3600]");
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage("--trace must be 0 or 1");
            a.trace = v[0] == '1';
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("bad number for " + flag).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Sum over cells of each cell's median time across rounds: host
 * seconds, or with @p at_ref seconds scaled to the reference host speed.
 */
double
roundSeconds(const std::vector<std::vector<CellTime>> &rounds, bool at_ref)
{
    double sum = 0;
    for (std::size_t c = 0; !rounds.empty() && c < rounds[0].size(); ++c) {
        std::vector<double> cell;
        for (const auto &r : rounds)
            cell.push_back(r[c].seconds * (at_ref ? r[c].speed : 1.0));
        sum += median(cell);
    }
    return sum;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printJson(bool correct, const Tally &tally, const std::vector<Metric> &ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.dropped +
                                                tally.checkFailures));
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(),
                    std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                    ms[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // Set-up, several times: setup_s is the median.
    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    for (int i = 0; i < kSetups; ++i) {
        w.reset();
        const std::int64_t t0 = nowNs();
        w = makeWorkload(args.workload, args.seed);
        if (!w)
            usage(("cannot set up workload " + args.workload).c_str());
        w->warmUp();
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    // The timed phase: whole rounds until the time is up.
    Tally tally;
    GapLog gaps, tracedGaps;
    SpanLog spans;
    // Host time per cell, one entry per round. A round's time is the sum
    // of per-cell medians: host noise comes in bursts shorter than a
    // round, and a cell is short enough to sit inside or outside one.
    std::vector<std::vector<CellTime>> untimed, traced;
    std::vector<CellTime> cellS;
    double peakRss = 0;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    const std::size_t minRounds = args.trace ? 2 : 3;
    for (unsigned i = 0;; ++i) {
        // Untraced, traced, traced, untraced, then untraced to the end:
        // two traced rounds bound the spans held in memory.
        const bool tracedRound = args.trace && (i == 1 || i == 2);
        if (tracedRound) {
            ScopedSpan root(&spans, Layer::Round);
            w->round(&spans, tracedGaps, tally, cellS);
        } else {
            w->round(nullptr, gaps, tally, cellS);
        }
        (tracedRound ? traced : untimed).push_back(cellS);
        // Later rounds repeat the same work; what they add is the
        // benchmark's own bookkeeping, whose allocations can keep a
        // freed instance's pages in the heap.
        if (i == 0)
            peakRss = peakRssMib();
        if (nowNs() >= deadline && untimed.size() >= minRounds &&
            (!args.trace || traced.size() == 2))
            break;
    }
    w->finish(tally);

    const auto rounds = static_cast<double>(untimed.size() + traced.size());
    const double wall = roundSeconds(untimed, false);
    const double wallRef = roundSeconds(untimed, true);
    std::vector<double> speeds;
    for (const auto &r : untimed)
        for (const CellTime &c : r)
            speeds.push_back(c.speed);
    const double attemptedPerRound =
        static_cast<double>(tally.attempted) / rounds;
    const double failFrac =
        static_cast<double>(tally.dropped + tally.retryExhausted +
                            tally.checkFailures) /
        static_cast<double>(std::max<std::uint64_t>(tally.attempted, 1));

    std::vector<Metric> out;
    std::printf("hostbench %s seed %llu: %zu untraced + %zu traced rounds, "
                "%llu attempted\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), untimed.size(),
                traced.size(),
                static_cast<unsigned long long>(tally.attempted));
    if (!args.trace) {
        const std::size_t cells = untimed.front().size();
        const auto pctOf = [&](double pct, bool at_ref) {
            const auto ns = repeatedPercentile(
                gaps.runs(), at_ref ? speeds : std::vector<double>{}, cells,
                pct);
            return ns ? std::optional<double>(*ns / 1e3) : std::nullopt;
        };
        const auto tail = pctOf(w->tailPct(), true);
        if (!tail)
            tally.fail("too few handler starts for the reported percentiles");
        out = {
            {"setup_s", median(setups), "s"},
            {"wall_ref_s", wallRef, "s"},
            {"req_per_ref_s", attemptedPerRound / wallRef, "req/s"},
            {"req_ref_us_tail", tail.value_or(0), "us"},
            {"peak_rss_mib", peakRss, "MiB"},
        };
        // The same figures in plain host time, at this run's host speed.
        std::size_t perRound = 0;
        for (std::size_t c = 0; c < cells; ++c)
            perRound += gaps.runs()[c].count;
        std::printf("  host speed %.4g x reference (median over %zu "
                    "timed cells); %zu requests a round, tail = p%g\n",
                    median(speeds), speeds.size(), perRound, w->tailPct());
        auto show = [](const char *name, std::optional<double> v,
                       const char *unit) {
            if (v)
                std::printf("  %-40s %.6g %s\n", name, *v, unit);
            else
                std::printf("  %-40s n/a (fewer than ten samples beyond "
                            "it)\n", name);
        };
        show("wall_s", wall, "s");
        show("req_per_host_s", attemptedPerRound / wall, "req/s");
        // The pooled median is printed, not gated: on faas_mix it falls
        // between the handlers' clusters and moves with the inputs.
        show("req_ref_us_p50", pctOf(50, true), "us");
        show("req_host_us_p50", pctOf(50, false), "us");
        show("req_host_us_p99", pctOf(99, false), "us");
        if (tally.simInsts)
            show("sim_insts_per_host_s",
                 static_cast<double>(tally.simInsts) / rounds / wall,
                 "insts/s");
        show("fail_frac", failFrac, "fraction");
    } else {
        Metrics layers;
        for (const auto &spec : layerMetricSpecs())
            layers[spec.name] = 0;
        const std::vector<Span> all = spans.spans();
        const std::vector<double> self = selfTimesNs(all);
        w->layerMetrics(all, self, tracedGaps,
                        static_cast<unsigned>(traced.size()), layers);
        double roundSelf = 0, roundDur = 0;
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (all[i].layer != Layer::Round)
                continue;
            roundSelf += self[i];
            roundDur += static_cast<double>(all[i].duration());
        }
        layers["bench.trace_overhead_frac"] =
            roundSeconds(traced, true) / wallRef - 1;
        layers["bench.host_speed"] = median(speeds);
        layers["bench.unattributed_frac"] =
            roundDur > 0 ? roundSelf / roundDur : 0;
        layers["bench.fail_frac"] = failFrac;
        if (layers.size() != layerMetricSpecs().size())
            tally.fail("a workload reported an unlisted per-layer metric");
        for (const auto &spec : layerMetricSpecs())
            out.push_back({spec.name, layers[spec.name], spec.unit});
        std::printf("  traced wall_s %.6g s vs untraced %.6g s; %zu spans\n",
                    roundSeconds(traced, false), wall, all.size());
        if (!args.spansPath.empty()) {
            if (writeSpans(all, self, args.spansPath))
                std::printf("  spans written to %s\n", args.spansPath.c_str());
            else
                std::fprintf(stderr, "hostbench: cannot write %s\n",
                             args.spansPath.c_str());
        }
    }
    for (const Metric &m : out) {
        std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    for (const auto &e : tally.errors)
        std::printf("  CHECK FAILED: %s\n", e.c_str());
    const bool correct = tally.checkFailures == 0;
    printJson(correct, tally, out);
    return correct ? 0 : 1;
}
