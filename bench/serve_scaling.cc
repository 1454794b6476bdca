/**
 * @file
 * Multi-core serving-engine scaling sweep: 1 -> 16 simulated cores,
 * each with its own HfiContext, serving an open-loop Poisson request
 * stream under the Table 1 protection schemes.
 *
 * Two questions the closed-loop Table 1 harness cannot answer:
 *
 *  1. Does per-request HFI state management (enter/exit, plus the
 *     §3.3.3 xsave/xrstor on every dispatch and timer preemption) eat
 *     into multi-core scaling? It must not — HFI state is per-core, so
 *     throughput should scale near-linearly with cores, unlike designs
 *     that serialize on shared protection state.
 *
 *  2. Where is the crossover at which Swivel's compute inflation
 *     dominates HFI's fixed transition costs? Short handlers amortize
 *     transitions badly (HFI's worst case); long handlers multiply
 *     compute (Swivel's worst case).
 *
 * Everything runs on seeded virtual clocks: output is bit-for-bit
 * reproducible across invocations.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/trace.h"
#include "serve/engine.h"

namespace
{

using namespace hfi;
using namespace hfi::serve;

/** ~76 us of handler work: stores plus metered compute. */
Handler
handlerWithOps(std::uint64_t ops)
{
    return [ops](sfi::Sandbox &s, std::uint32_t seed) {
        for (int i = 0; i < 64; ++i)
            s.store<std::uint32_t>(64 + (i % 64) * 4, seed + i);
        s.chargeOps(ops);
    };
}

EngineConfig
baseConfig(unsigned workers, Scheme scheme)
{
    EngineConfig ec;
    ec.workers = workers;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 1600;
    // Mean interarrival 5 us against ~80 us service: heavy overload at
    // one core, comfortably under capacity at sixteen. The sweep shows
    // the queueing collapse unwinding as cores are added.
    ec.meanInterarrivalNs = 5'000.0;
    ec.seed = 2023;
    ec.worker.scheme = scheme;
    ec.worker.quantumNs = 50'000.0; // 50 us timer
    ec.worker.teardownBatch = 32;
    if (scheme == Scheme::Swivel)
        ec.worker.swivelEffect = swivel::apply(swivel::xmlToJsonProfile());
    return ec;
}

void
sweepScheme(Scheme scheme, std::uint64_t ops)
{
    std::printf("\n%s\n", schemeName(scheme));
    std::printf("  %5s %7s %6s %9s %9s %9s %9s %9s %8s\n", "cores",
                "served", "shed", "thru r/s", "p50 us", "p95 us", "p99 us",
                "p99.9 us", "speedup");
    double base_thru = 0;
    for (unsigned workers : {1u, 2u, 4u, 8u, 16u}) {
        const auto res =
            ServeEngine(baseConfig(workers, scheme), handlerWithOps(ops))
                .run();
        if (workers == 1)
            base_thru = res.throughputRps;
        std::printf(
            "  %5u %7zu %6zu %9.0f %9.1f %9.1f %9.1f %9.1f %7.2fx\n",
            workers, res.served, res.shed, res.throughputRps,
            res.latency.p50 / 1e3, res.latency.p95 / 1e3,
            res.latency.p99 / 1e3, res.latency.p999 / 1e3,
            res.throughputRps / base_thru);
    }
}

void
crossoverAtEightCores()
{
    std::printf("\nSerialization-cost crossover (8 cores, handler length "
                "sweep)\n");
    std::printf("  %9s %14s %14s %14s %11s\n", "ops/req", "HFI p99 us",
                "soe p99 us", "Swivel p99 us", "HFI wins?");
    for (std::uint64_t ops : {2'000ULL, 20'000ULL, 200'000ULL}) {
        double p99[3];
        int i = 0;
        for (Scheme s : {Scheme::HfiNative, Scheme::HfiSwitchOnExit,
                         Scheme::Swivel}) {
            auto cfg = baseConfig(8, s);
            // Keep offered load proportional to service so every row
            // sits at the same utilization.
            cfg.meanInterarrivalNs =
                500.0 + static_cast<double>(ops) / 16.0;
            const auto res =
                ServeEngine(cfg, handlerWithOps(ops)).run();
            p99[i++] = res.latency.p99;
        }
        std::printf("  %9llu %14.1f %14.1f %14.1f %11s\n",
                    static_cast<unsigned long long>(ops), p99[0] / 1e3,
                    p99[1] / 1e3, p99[2] / 1e3,
                    p99[0] < p99[2] ? "yes" : "no");
    }
}

void
admissionControlDemo()
{
    std::printf("\nAdmission control (4 cores, overload at 2x capacity, "
                "shed vs queue)\n");
    std::printf("  %9s %7s %6s %9s %9s %9s\n", "cap/shard", "served",
                "shed", "thru r/s", "p99 us", "maxdepth");
    for (std::size_t cap : {std::size_t{0}, std::size_t{64},
                            std::size_t{8}}) {
        auto cfg = baseConfig(4, Scheme::HfiNative);
        cfg.meanInterarrivalNs = 10'000.0; // ~2x a 4-core capacity
        cfg.queueCapacity = cap;
        const auto res =
            ServeEngine(cfg, handlerWithOps(250'000)).run();
        std::printf("  %9zu %7zu %6zu %9.0f %9.1f %9zu\n", cap,
                    res.served, res.shed, res.throughputRps,
                    res.latency.p99 / 1e3, res.maxQueueDepth);
    }
    std::printf("  (cap 0 = unbounded: nothing sheds, the tail absorbs "
                "the whole backlog)\n");
}

/**
 * --threads mode: run each core count threaded (one host std::thread
 * per simulated core) and sequentially, both with stealing off so the
 * shards decompose, and require the results to be bit-identical —
 * every merged statistic and every per-request latency sample. Exits
 * nonzero on the first mismatch (CI gates on this).
 */
int
threadedEquivalenceGate()
{
    std::printf("Threaded-vs-sequential equivalence gate (open loop, "
                "round robin, no stealing)\n");
    std::printf("  %5s %7s %9s %9s %7s %10s\n", "cores", "served",
                "thru r/s", "p99 us", "threads", "identical");
    int failures = 0;
    for (unsigned workers : {2u, 4u, 8u}) {
        auto cfg = baseConfig(workers, Scheme::HfiNative);
        cfg.workStealing = false;
        cfg.queueCapacity = 64; // exercise shedding under decomposition
        cfg.realThreads = true;
        const auto threaded =
            ServeEngine(cfg, handlerWithOps(250'000)).run();
        cfg.realThreads = false;
        const auto sequential =
            ServeEngine(cfg, handlerWithOps(250'000)).run();

        const bool same = threaded.usedThreads == workers &&
                          sequential.usedThreads == 1 &&
                          identical(threaded, sequential);
        if (!same)
            ++failures;
        std::printf("  %5u %7zu %9.0f %9.1f %7u %10s\n", workers,
                    threaded.served, threaded.throughputRps,
                    threaded.latency.p99 / 1e3, threaded.usedThreads,
                    same ? "yes" : "NO");
    }
    if (failures)
        std::printf("FAIL: %d core count(s) diverged between threaded "
                    "and sequential runs\n", failures);
    else
        std::printf("OK: threaded runs are bit-identical to the "
                    "sequential event loop\n");
    return failures ? 1 : 0;
}

/**
 * --trace [path]: run the seeded 4-core configuration with the event
 * tracer attached and emit a Chrome/Perfetto trace-event JSON (one
 * track per core, virtual-ns timebase). Load the file at
 * https://ui.perfetto.dev or chrome://tracing. The run is the same
 * threadable configuration the determinism tests pin, so the trace is
 * bit-identical across invocations.
 */
int
emitTrace(const char *path)
{
    auto cfg = baseConfig(4, Scheme::HfiNative);
    cfg.workStealing = false;
    cfg.queueCapacity = 64;
    obs::TraceConfig tc;
    tc.capacityPerCore = 16384;   // hold the full 1600-request run
    tc.categories = obs::kCatAll; // include the verbose hfi transitions
    obs::Trace trace(cfg.workers, tc);
    cfg.trace = &trace;
    const auto res = ServeEngine(cfg, handlerWithOps(250'000)).run();

    const std::string json = trace.chromeTraceJson();
    FILE *f = std::fopen(path, "w");
    if (!f) {
        std::perror(path);
        return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);

    std::size_t events = 0;
    std::uint64_t dropped = 0;
    for (unsigned c = 0; c < trace.cores(); ++c) {
        events += trace.buffer(c).size();
        dropped += trace.buffer(c).dropped();
    }
    std::printf("served %zu requests on %u cores; wrote %s "
                "(%zu events, %llu dropped)\n",
                res.served, cfg.workers, path, events,
                static_cast<unsigned long long>(dropped));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--threads") == 0)
        return threadedEquivalenceGate();
    if (argc > 1 && std::strcmp(argv[1], "--trace") == 0)
        return emitTrace(argc > 2 ? argv[2] : "serve_scaling.trace.json");

    std::printf("Serving-engine scaling: open-loop Poisson load, "
                "per-core HFI contexts,\n1600 requests, ~80 us "
                "handlers, 50 us preemption quantum\n");
    for (Scheme scheme : {Scheme::Unsafe, Scheme::HfiNative,
                          Scheme::HfiSwitchOnExit, Scheme::Swivel})
        sweepScheme(scheme, 250'000);
    crossoverAtEightCores();
    admissionControlDemo();
    return 0;
}
