/**
 * @file
 * Tracing-overhead gate: the same seeded 4-core serving run with the
 * event tracer attached and detached, timed on the host clock.
 *
 * Two claims the observability layer makes, both checked here:
 *
 *  1. *Zero observable effect.* Tracing must not perturb the simulation:
 *     every merged statistic and every per-request latency sample must
 *     be bit-identical with the tracer on and off (recording only reads
 *     virtual time, never advances it). Any divergence fails the bench.
 *  2. *Bounded cost.* With HFI_OBS compiled in and a trace attached,
 *     the median host wall time may exceed the untraced median by at
 *     most 5%. Recording is a branch, a few stores and a wrapping
 *     increment per event; the gate keeps it that way.
 *
 * Measurement design, because the bound is smaller than the run-to-run
 * noise of a busy host: runs are grouped into A/B/B/A blocks (traced,
 * untraced, untraced, traced). Within a block, any drift that is
 * linear in time — frequency ramps, thermal throttling, a neighbor
 * spinning up — contributes equally to both variants and cancels in
 * the block's ratio. Each slot of a block repeats the serving run until
 * the block holds at least 50 ms of work, so one descheduling is small
 * against it. Every run is timed twice: by wall time, which the bound
 * gates, and by the thread's CPU time (CLOCK_THREAD_CPUTIME_ID; the
 * engine runs on the calling thread), which time spent descheduled
 * does not inflate. The gate takes the median over block ratios, which
 * trims blocks that caught a spike, and prints the min, median and max
 * of both clocks' ratios so a reader can see how far they spread.
 *
 * To tell what the overhead is made of, the gate also times
 * TraceBuffer::record itself in a microbench (one ring at the gate's
 * capacity and categories) and prints ns per recorded event next to the
 * events one traced run records: their product is the share of a run
 * the stores into the ring explain, the rest is the record sites and
 * what the ring does to the engine's caches. The microbench is printed
 * only; the bound gates the serving runs alone.
 */

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "obs/trace.h"
#include "serve/engine.h"

namespace
{

using namespace hfi;
using namespace hfi::serve;
using Clock = std::chrono::steady_clock;

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

/** The serve_faults fault-free cell (4 cores, warm pools, threadable),
    at 4x the request count: ~6 ms of host work per run, so scheduler
    noise is small against the cost being measured. */
EngineConfig
config()
{
    EngineConfig ec;
    ec.workers = 4;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 6400;
    ec.meanInterarrivalNs = 40'000.0;
    ec.seed = 2026;
    ec.queueCapacity = 128;
    ec.workStealing = false;
    ec.worker.scheme = Scheme::HfiNative;
    ec.worker.quantumNs = 50'000.0;
    ec.worker.teardownBatch = 32;
    ec.worker.poolSize = 4;
    return ec;
}

/** Host time of one block slot, on both clocks. */
struct Timed
{
    double wallNs = 0;
    double cpuNs = 0;
};

double
threadCpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1e9 + ts.tv_nsec;
}

/**
 * @p reps serving runs with @p trace attached (or none), timed together.
 * Clears @p identicalResults if any run's result differs from
 * @p baseline.
 */
Timed
runSlot(obs::Trace *trace, int reps, const ServeResult &baseline,
        bool &identicalResults)
{
    auto cfg = config();
    cfg.trace = trace;
    Timed t;
    for (int r = 0; r < reps; ++r) {
        ServeEngine engine(cfg, handlerWithOps(250'000));
        const auto wall0 = Clock::now();
        const double cpu0 = threadCpuNs();
        const ServeResult res = engine.run();
        t.cpuNs += threadCpuNs() - cpu0;
        t.wallNs += std::chrono::duration<double, std::nano>(
                        Clock::now() - wall0)
                        .count();
        identicalResults = identicalResults && identical(res, baseline);
    }
    return t;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Events recorded into @p trace (retained plus overwritten). */
std::uint64_t
recordedEvents(const obs::Trace &trace)
{
    std::uint64_t n = 0;
    for (unsigned c = 0; c < trace.cores(); ++c)
        n += trace.buffer(c).size() + trace.buffer(c).dropped();
    return n;
}

/**
 * Host ns per TraceBuffer::record call of a type the default categories
 * keep, on a ring configured as the gate's (default capacity and
 * categories): the median of 9 batches of 2^20 records each.
 */
double
nsPerRecord()
{
    constexpr std::uint64_t kRecords = 1u << 20;
    obs::Trace trace(1);
    obs::TraceBuffer &ring = trace.buffer(0);
    std::vector<double> ns;
    for (std::uint64_t batch = 0; batch < 9; ++batch) {
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kRecords; ++i)
            ring.record(obs::EventType::QueuePush, static_cast<double>(i),
                        i, batch);
        ns.push_back(std::chrono::duration<double, std::nano>(
                         Clock::now() - t0)
                         .count() /
                     kRecords);
    }
    if (recordedEvents(trace) != 9 * kRecords)
        std::printf("(record microbench: QueuePush is masked out, so this "
                    "timed the drop path)\n");
    return median(ns);
}

/** "min / median / max" of the block ratios, as overhead percentages. */
void
printSpread(const char *clock, const std::vector<double> &ratios)
{
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    std::printf("  %-4s overhead %+.2f%% median  (min %+.2f%%, max %+.2f%% "
                "over %zu blocks)\n",
                clock, (median(ratios) - 1.0) * 100.0, (*lo - 1.0) * 100.0,
                (*hi - 1.0) * 100.0, ratios.size());
}

} // namespace

int
main()
{
    constexpr int kBlocks = 13; // A/B/B/A blocks
    constexpr double kMinBlockNs = 50e6;
    constexpr double kMaxOverhead = 0.05;

    std::printf("Trace-overhead gate: seeded 4-core serve run, tracer "
                "attached vs detached,\n%d traced/untraced/untraced/traced "
                "blocks, median block ratio (bound: %.0f%% wall)\n",
                kBlocks, kMaxOverhead * 100.0);
#if !HFI_OBS_ENABLED
    std::printf("(built with HFI_OBS=OFF: record sites are compiled "
                "out; the bound is trivial)\n");
#endif

    // Warm both paths (page faults, allocator) before timing; the
    // untraced warm-up also sizes the slots.
    const ServeResult baseline =
        ServeEngine(config(), handlerWithOps(250'000)).run();
    bool resultsMatch = true;
    const Timed once = runSlot(nullptr, 1, baseline, resultsMatch);
    {
        obs::Trace warm(config().workers);
        runSlot(&warm, 1, baseline, resultsMatch);
    }
    const int reps = std::max(
        1, static_cast<int>(std::ceil(kMinBlockNs / (4 * once.wallNs))));

    std::vector<double> wallRatios, cpuRatios, untracedNs, tracedNs;
    std::size_t events = 0;
    std::uint64_t recorded = 0;
    for (int i = 0; i < kBlocks; ++i) {
        obs::Trace trace(config().workers);
        const Timed t1 = runSlot(&trace, reps, baseline, resultsMatch);
        const Timed u1 = runSlot(nullptr, reps, baseline, resultsMatch);
        const Timed u2 = runSlot(nullptr, reps, baseline, resultsMatch);
        const Timed t2 = runSlot(&trace, reps, baseline, resultsMatch);
        wallRatios.push_back((t1.wallNs + t2.wallNs) /
                             (u1.wallNs + u2.wallNs));
        cpuRatios.push_back((t1.cpuNs + t2.cpuNs) / (u1.cpuNs + u2.cpuNs));
        tracedNs.insert(tracedNs.end(), {t1.wallNs / reps, t2.wallNs / reps});
        untracedNs.insert(untracedNs.end(),
                          {u1.wallNs / reps, u2.wallNs / reps});
        events = 0;
        for (unsigned c = 0; c < trace.cores(); ++c)
            events += trace.buffer(c).size();
        recorded = recordedEvents(trace);
    }

    const double overhead = median(wallRatios) - 1.0;
    std::printf("  %d runs per slot, %.0f ms per block\n", reps,
                4 * reps * median(untracedNs) / 1e6);
    std::printf("  untraced median %10.0f ns per run\n", median(untracedNs));
    std::printf("  traced   median %10.0f ns per run  (%zu events "
                "retained)\n",
                median(tracedNs), events);
    printSpread("wall", wallRatios);
    printSpread("cpu", cpuRatios);

    // One block's trace holds its two traced slots.
    const double perRun = static_cast<double>(recorded) / (2.0 * reps);
    const double recordNs = nsPerRecord();
    std::printf("  record() microbench: %.2f ns per recorded event\n",
                recordNs);
    std::printf("  %.0f events recorded per traced run x %.2f ns = %.2f%% "
                "of an untraced run\n",
                perRun, recordNs,
                perRun * recordNs / median(untracedNs) * 100.0);

    if (!resultsMatch) {
        std::printf("FAIL: tracing perturbed the simulation (results "
                    "differ traced vs untraced)\n");
        return 1;
    }
    if (overhead > kMaxOverhead) {
        std::printf("FAIL: tracing overhead %.2f%% exceeds the %.0f%% "
                    "bound\n",
                    overhead * 100.0, kMaxOverhead * 100.0);
        return 1;
    }
    std::printf("OK: results bit-identical, overhead within bound\n");
    return 0;
}
