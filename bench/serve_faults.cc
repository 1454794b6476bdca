/**
 * @file
 * Fault-injection degradation sweep: fault rate x protection scheme on
 * the multi-core serving engine, with the robustness machinery (per-
 * request deadlines, bounded retry with exponential backoff, instance
 * quarantine + background respawn) engaged.
 *
 * The question, per §6.3's FaaS setting: when a fraction of requests
 * raise real HFI exits (data/code OOB, syscall redirects, hmov overflow
 * traps — all through the src/core checker paths), stall past the
 * watchdog, or poison their instance, does the engine keep serving with
 * a bounded tail? The acceptance bar: at 5% injection no scheme's p99
 * goodput latency exceeds 3x its fault-free value, the warm pool never
 * drains (every quarantine respawns, no request is ever rejected for
 * want of an instance), and the whole campaign replays bit-identically
 * from (seed, fault_rate) — in the sequential event loop and, with
 * --threads, in realThreads mode.
 *
 * Emits BENCH_serve_faults.json; two runs produce byte-identical files.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/checker.h"
#include "obs/json_writer.h"
#include "serve/engine.h"
#include "serve_handler.h"

namespace
{

using namespace hfi;
using namespace hfi::serve;
using bench::handlerWithOps;

EngineConfig
faultConfig(Scheme scheme, double rate)
{
    EngineConfig ec;
    ec.workers = 4;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 1600;
    // Mean interarrival 40 us against ~80 us service on 4 cores: ~0.5
    // utilization fault-free (Swivel's inflated service pushes it
    // higher), so there is headroom for retry traffic without queueing
    // collapse.
    ec.meanInterarrivalNs = 40'000.0;
    ec.seed = 2026;
    ec.queueCapacity = 128;
    // No stealing: the identical configuration is threadable, so the
    // --threads gate compares exactly the cells the sweep prints.
    ec.workStealing = false;
    ec.worker.scheme = scheme;
    ec.worker.quantumNs = 50'000.0;
    ec.worker.teardownBatch = 32;
    if (scheme == Scheme::Swivel)
        ec.worker.swivelEffect = swivel::apply(swivel::xmlToJsonProfile());

    // Robustness: warm per-core pools with background respawn, a 300 us
    // deadline (comfortably above every scheme's worst natural service,
    // including Swivel's inflated one), two retries with 25 us backoff.
    ec.worker.poolSize = 4;
    ec.worker.respawnDelayNs = 200'000.0;
    ec.worker.requestTimeoutNs = 300'000.0;
    ec.worker.maxRetries = 2;
    ec.worker.retryBackoffNs = 25'000.0;
    ec.worker.faults.rate = rate;
    ec.worker.faults.stallNs = 2'000'000.0;
    return ec;
}

constexpr double kRates[] = {0.0, 0.01, 0.02, 0.05, 0.10};
constexpr Scheme kSchemes[] = {Scheme::Unsafe, Scheme::HfiNative,
                               Scheme::HfiSwitchOnExit, Scheme::Swivel};

struct Cell
{
    Scheme scheme;
    double rate;
    ServeResult res;
};

/** Engine totals must equal the by-core sums (the single-source-of-
    truth invariant the accounting rework establishes). */
bool
perCoreConsistent(const ServeResult &r)
{
    RobustnessStats sum;
    for (const auto &core : r.perCore)
        sum.merge(core);
    return sum == r.robustness && sum.shed == r.shed &&
           sum.served == r.served;
}

int
runSweep()
{
    std::printf("Fault-injection degradation sweep: 4 cores, ~80 us "
                "handlers,\n1600 open-loop requests, 300 us deadline, "
                "2 retries, warm pools of 4\n");

    std::vector<Cell> cells;
    int violations = 0;

    for (Scheme scheme : kSchemes) {
        std::printf("\n%s\n", schemeName(scheme));
        std::printf("  %6s %7s %7s %7s %6s %6s %6s %6s %6s %6s %10s %10s\n",
                    "rate%", "served", "failed", "shed", "exits", "retry",
                    "tmout", "quarA", "respwn", "rejct", "p50 us",
                    "p99 us");
        double faultFreeP99 = 0;
        for (double rate : kRates) {
            const auto res =
                ServeEngine(faultConfig(scheme, rate), handlerWithOps(250'000))
                    .run();
            if (rate == 0.0)
                faultFreeP99 = res.latency.p99;

            std::printf("  %6.1f %7zu %7llu %7zu %6llu %6llu %6llu %6llu "
                        "%6llu %6zu %10.1f %10.1f\n",
                        rate * 100.0, res.served,
                        static_cast<unsigned long long>(res.robustness.failed),
                        res.shed,
                        static_cast<unsigned long long>(res.robustness.exits),
                        static_cast<unsigned long long>(
                            res.robustness.retries),
                        static_cast<unsigned long long>(
                            res.robustness.timeouts),
                        static_cast<unsigned long long>(
                            res.robustness.quarantines),
                        static_cast<unsigned long long>(
                            res.robustness.respawns),
                        res.rejected, res.latency.p50 / 1e3,
                        res.latency.p99 / 1e3);

            // Invariants the robustness layer must hold at every cell.
            if (res.rejected != 0) {
                std::printf("  VIOLATION: pool drained (%zu rejections)\n",
                            res.rejected);
                ++violations;
            }
            if (res.served + res.robustness.failed + res.shed !=
                faultConfig(scheme, rate).requests) {
                std::printf("  VIOLATION: request conservation broken\n");
                ++violations;
            }
            if (!perCoreConsistent(res)) {
                std::printf("  VIOLATION: per-core breakdown does not sum "
                            "to engine totals\n");
                ++violations;
            }
            if (rate == 0.05 && res.latency.p99 > 3.0 * faultFreeP99) {
                std::printf("  VIOLATION: p99 at 5%% faults is %.1fx the "
                            "fault-free p99 (bound: 3x)\n",
                            res.latency.p99 / faultFreeP99);
                ++violations;
            }
            cells.push_back({scheme, rate, res});
        }
    }

    // Exit-reason mix at the heaviest injection, for one scheme — shows
    // the real checker paths are what is being exercised.
    std::printf("\nExit reasons at 10%% injection (%s):\n",
                schemeName(Scheme::HfiNative));
    for (const auto &cell : cells) {
        if (cell.scheme != Scheme::HfiNative || cell.rate != 0.10)
            continue;
        for (unsigned r = 0; r < core::kNumExitReasons; ++r) {
            const auto n = cell.res.robustness.exitsByReason[r];
            if (n != 0)
                std::printf("  %-22s %6llu\n",
                            core::toString(
                                static_cast<core::ExitReason>(r)),
                            static_cast<unsigned long long>(n));
        }
    }

    // Deterministic JSON (virtual-clock doubles print exactly), through
    // the shared versioned writer every BENCH_*.json emitter uses.
    obs::JsonWriter jw;
    jw.beginObject();
    jw.field("bench", "serve_faults");
    jw.schemaVersion();
    jw.field("seed", 2026);
    jw.key("cells").beginArray();
    for (const auto &c : cells) {
        const auto &r = c.res.robustness;
        jw.beginObject();
        jw.field("scheme", schemeName(c.scheme));
        jw.field("rate", c.rate, "%.2f");
        jw.field("served", static_cast<std::uint64_t>(c.res.served));
        jw.field("failed", r.failed);
        jw.field("shed", static_cast<std::uint64_t>(c.res.shed));
        jw.field("exits", r.exits);
        jw.field("retries", r.retries);
        jw.field("timeouts", r.timeouts);
        jw.field("quarantines", r.quarantines);
        jw.field("respawns", r.respawns);
        jw.field("rejected", static_cast<std::uint64_t>(c.res.rejected));
        jw.field("p50_ns", c.res.latency.p50, "%.3f");
        jw.field("p99_ns", c.res.latency.p99, "%.3f");
        jw.field("throughput_rps", c.res.throughputRps, "%.3f");
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    FILE *json = std::fopen("BENCH_serve_faults.json", "w");
    if (json) {
        std::fputs(jw.str().c_str(), json);
        std::fputc('\n', json);
        std::fclose(json);
        std::printf("\nwrote BENCH_serve_faults.json\n");
    }

    if (violations) {
        std::printf("%d robustness violation(s)\n", violations);
        return 1;
    }
    std::printf("OK: p99 bounded under injection, pools never drained\n");
    return 0;
}

int
runThreadsGate()
{
    std::printf("Threaded-vs-sequential fault campaign gate (5%% "
                "injection)\n");
    bool ok = true;
    for (Scheme scheme : kSchemes) {
        EngineConfig seq = faultConfig(scheme, 0.05);
        EngineConfig thr = seq;
        thr.realThreads = true;
        const auto a = ServeEngine(seq, handlerWithOps(250'000)).run();
        const auto b = ServeEngine(thr, handlerWithOps(250'000)).run();
        const bool same = identical(a, b) && b.usedThreads == seq.workers;
        std::printf("  %-16s exits %5llu  threads %u  identical %s\n",
                    schemeName(scheme),
                    static_cast<unsigned long long>(b.robustness.exits),
                    b.usedThreads, same ? "yes" : "NO");
        ok = ok && same;
    }
    if (!ok) {
        std::printf("DIVERGENCE: threaded fault campaign differs from "
                    "sequential\n");
        return 1;
    }
    std::printf("OK: fault campaigns are bit-identical across drivers\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--threads") == 0)
        return runThreadsGate();
    return runSweep();
}
