/**
 * @file
 * Tests of the benchmark's own arithmetic and checks: span self times,
 * the ten-beyond percentile rule, per-thread handler gaps under the
 * threaded engine driver, and the output checks failing on perturbed
 * results.
 *
 *   python3 hostbench/run.py --selftest
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "serve/engine.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace
{

using namespace hostbench;

Span
span(std::uint32_t id, std::uint32_t parent, std::uint32_t thread,
     std::int64_t begin, std::int64_t end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.thread = thread;
    s.beginNs = begin;
    s.endNs = end;
    return s;
}

/** A run whose gaps are exactly @p sorted. */
GapLog::Run
runOf(std::vector<double> sorted)
{
    GapLog::Run r;
    r.count = sorted.size();
    r.sorted = std::move(sorted);
    return r;
}

TEST(SpanSelfTime, OverlappingChildrenOnOneThreadCountOnce)
{
    const std::vector<Span> spans = {
        span(0, Span::kNoParent, 0, 0, 100),
        span(1, 0, 0, 10, 30),
        span(2, 0, 0, 20, 50), // overlaps span 1 by 10
        span(3, 0, 0, 70, 80),
    };
    const auto self = selfTimesNs(spans);
    EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 10);
    EXPECT_DOUBLE_EQ(self[1], 20);
    EXPECT_DOUBLE_EQ(self[2], 30);
    EXPECT_DOUBLE_EQ(self[3], 10);
}

TEST(SpanSelfTime, NestingAndClippingToTheParent)
{
    const std::vector<Span> spans = {
        span(7, Span::kNoParent, 0, 0, 100),
        span(8, 7, 0, 10, 60),
        span(9, 8, 0, 20, 30),
        span(10, 7, 0, 90, 120), // runs past its parent: 10 inside
    };
    const auto self = selfTimesNs(spans);
    EXPECT_DOUBLE_EQ(self[0], 100 - 50 - 10);
    EXPECT_DOUBLE_EQ(self[1], 50 - 10);
    EXPECT_DOUBLE_EQ(self[2], 10);
    EXPECT_DOUBLE_EQ(self[3], 30);
    // A tree of spans on one thread accounts for its root exactly.
    double sum = 0;
    for (std::size_t i = 0; i < 3; ++i)
        sum += self[i];
    EXPECT_DOUBLE_EQ(sum + 10, 100);
}

TEST(SpanSelfTime, ChildrenOnTwoThreadsChargeEachThread)
{
    // A run span on the main thread whose handlers ran on two workers:
    // the run owns, per worker thread, the time no handler covered.
    const std::vector<Span> spans = {
        span(0, Span::kNoParent, 0, 0, 100),
        span(1, 0, 1, 0, 40),
        span(2, 0, 1, 50, 70),
        span(3, 0, 2, 10, 90),
    };
    const auto self = selfTimesNs(spans);
    EXPECT_DOUBLE_EQ(self[0], (100 - 60) + (100 - 80));
}

TEST(SpanSelfTime, ScopedSpansLinkParentsAcrossThreads)
{
    SpanLog log;
    std::uint32_t runId = 0;
    {
        ScopedSpan run(&log, Layer::ServeRun);
        runId = run.id();
        log.setCrossThreadParent(runId);
        std::thread worker([&log] {
            ScopedSpan h(&log, Layer::Handler, 0, 42);
            ScopedSpan k(&log, Layer::WorkloadXml, 0, 42);
            k.setCount(5);
        });
        worker.join();
        log.setCrossThreadParent(Span::kNoParent);
    }
    ScopedSpan untraced(nullptr, Layer::Round); // records nothing
    const auto spans = log.spans();
    ASSERT_EQ(spans.size(), 3u);
    const Span *run = nullptr, *handler = nullptr, *kernel = nullptr;
    for (const Span &s : spans) {
        if (s.layer == Layer::ServeRun)
            run = &s;
        if (s.layer == Layer::Handler)
            handler = &s;
        if (s.layer == Layer::WorkloadXml)
            kernel = &s;
    }
    ASSERT_TRUE(run && handler && kernel);
    EXPECT_EQ(run->parent, Span::kNoParent);
    EXPECT_EQ(handler->parent, runId);
    EXPECT_EQ(kernel->parent, handler->id);
    EXPECT_NE(handler->thread, run->thread);
    EXPECT_EQ(kernel->request, 42u);
    EXPECT_EQ(kernel->count, 5u);
}

/** A small threadable open-loop configuration. */
hfi::serve::EngineConfig
threadedConfig()
{
    hfi::serve::EngineConfig ec;
    ec.workers = 2;
    ec.requests = 200;
    ec.meanInterarrivalNs = 80'000.0;
    ec.workStealing = false;
    ec.realThreads = true;
    return ec;
}

TEST(HandlerGaps, OnePerHandlerStartAfterTheFirstOnEachThread)
{
    GapLog gaps;
    std::atomic<unsigned> calls{0};
    const hfi::serve::Handler handler = [&](hfi::sfi::Sandbox &s,
                                            std::uint32_t seed) {
        gaps.mark();
        ++calls;
        s.store<std::uint32_t>(64, seed);
        s.chargeOps(1000);
    };

    gaps.beginRun();
    const auto threaded =
        hfi::serve::ServeEngine(threadedConfig(), handler).run();
    gaps.endRun();
    ASSERT_EQ(threaded.usedThreads, 2u);
    ASSERT_EQ(calls.load(), 200u);
    ASSERT_EQ(gaps.runs().size(), 1u);
    EXPECT_EQ(gaps.runs()[0].count, 200u - 2); // first start per thread
    EXPECT_GE(gaps.busySkew(), 1.0);
    for (double g : gaps.runs()[0].sorted)
        EXPECT_GT(g, 0);

    // A second, sequential run: no gap spans the two runs.
    auto seq = threadedConfig();
    seq.realThreads = false;
    gaps.beginRun();
    hfi::serve::ServeEngine(seq, handler).run();
    gaps.endRun();
    ASSERT_EQ(gaps.runs().size(), 2u);
    EXPECT_EQ(gaps.runs()[1].count, 200u - 1);
}

TEST(HandlerGaps, SingleThreadHasNoSkew)
{
    GapLog gaps;
    gaps.beginRun();
    for (int i = 0; i < 5; ++i)
        gaps.mark();
    gaps.endRun();
    ASSERT_EQ(gaps.runs().size(), 1u);
    EXPECT_EQ(gaps.runs()[0].count, 4u);
    EXPECT_DOUBLE_EQ(gaps.busySkew(), 1.0);
}

TEST(HandlerGaps, LongRunsKeepEvenlySpacedOrderStatistics)
{
    GapLog gaps;
    gaps.beginRun();
    for (std::size_t i = 0; i < 3 * GapLog::kSketch; ++i)
        gaps.mark();
    gaps.endRun();
    const GapLog::Run &run = gaps.runs().at(0);
    EXPECT_EQ(run.count, 3 * GapLog::kSketch - 1);
    ASSERT_EQ(run.sorted.size(), GapLog::kSketch);
    EXPECT_TRUE(std::is_sorted(run.sorted.begin(), run.sorted.end()));
}

TEST(Percentile, NeedsTenSamplesBeyond)
{
    std::vector<double> v(100);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i + 1);
    const std::vector<GapLog::Run> one = {runOf(v)};
    const std::vector<double> raw;
    // Rank 90 of 100 leaves exactly ten samples beyond it.
    EXPECT_DOUBLE_EQ(*repeatedPercentile(one, raw, 1, 90), 90);
    EXPECT_FALSE(repeatedPercentile(one, raw, 1, 91).has_value());
    EXPECT_FALSE(repeatedPercentile(one, raw, 1, 99).has_value());
    EXPECT_DOUBLE_EQ(*repeatedPercentile(one, raw, 1, 50), 50);

    std::vector<double> big(1000);
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<double>(i);
    EXPECT_DOUBLE_EQ(*repeatedPercentile({runOf(big)}, raw, 1, 99), 989);
    big.pop_back();
    EXPECT_FALSE(repeatedPercentile({runOf(big)}, raw, 1, 99).has_value());
    EXPECT_FALSE(repeatedPercentile({}, raw, 1, 50).has_value());
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Percentile, RepeatedRoundsTakeTheMedianRankByRank)
{
    std::vector<double> base(20);
    for (std::size_t i = 0; i < base.size(); ++i)
        base[i] = static_cast<double>(i + 1);
    std::vector<double> burst = base;
    for (double &v : burst)
        v *= 3; // one round slowed down by host noise
    // One cell, three rounds: the burst round does not move the result.
    const std::vector<GapLog::Run> runs = {runOf(base), runOf(burst),
                                           runOf(base)};
    const std::vector<double> raw;
    EXPECT_DOUBLE_EQ(*repeatedPercentile(runs, raw, 1, 50), 10);
    // Rank 10 of 20 leaves ten beyond; rank 11 leaves nine.
    EXPECT_TRUE(repeatedPercentile(runs, raw, 1, 50).has_value());
    EXPECT_FALSE(repeatedPercentile(runs, raw, 1, 55).has_value());

    // Scaling by host speed happens per run before the median.
    const std::vector<GapLog::Run> slow = {runOf(burst), runOf(burst)};
    EXPECT_DOUBLE_EQ(*repeatedPercentile(slow, {1.0 / 3, 1.0 / 3}, 1, 50),
                     10);
    EXPECT_FALSE(repeatedPercentile(slow, {1.0}, 1, 50).has_value());

    // Two cells pool with their gap counts as weights.
    const std::vector<GapLog::Run> two = {runOf(base),
                                          runOf(std::vector<double>(60, 100))};
    EXPECT_DOUBLE_EQ(*repeatedPercentile(two, raw, 2, 50), 100);
    EXPECT_DOUBLE_EQ(*repeatedPercentile(two, raw, 2, 20), 16);

    // Rounds that disagree on a cell's gap count are refused.
    const std::vector<GapLog::Run> ragged = {runOf(base), runOf({1, 2, 3})};
    EXPECT_FALSE(repeatedPercentile(ragged, raw, 1, 50).has_value());
}

TEST(Calibration, SpeedIsTheReferenceOverTheMeanOfTheTwoProbes)
{
    for (auto kind : {Calibration::Compute, Calibration::Lifecycle}) {
        const double ref = calibrationRefSeconds(kind);
        const auto speeds = speedsBetween(kind, {ref, ref * 3, ref});
        ASSERT_EQ(speeds.size(), 2u);
        EXPECT_DOUBLE_EQ(speeds[0], 0.5);
        EXPECT_DOUBLE_EQ(speeds[1], 0.5);
        EXPECT_GT(calibrationSeconds(kind), 0);
    }
    // Uncalibrated cells run at speed 1.
    EXPECT_EQ(calibrate(Calibration::None, nullptr), 0);
    EXPECT_EQ(speedsBetween(Calibration::None, {0, 0}),
              std::vector<double>{1});
}

TEST(OutputChecks, FingerprintAndAccountingCatchPerturbations)
{
    auto seq = threadedConfig();
    seq.realThreads = false;
    const hfi::serve::Handler handler = [](hfi::sfi::Sandbox &s,
                                           std::uint32_t seed) {
        s.store<std::uint32_t>(64, seed);
        s.chargeOps(1000);
    };
    const auto r = hfi::serve::ServeEngine(seq, handler).run();
    EXPECT_EQ(checkAccounting(r, seq.requests), "");
    EXPECT_TRUE(sameServeResult(r, r));

    auto later = r;
    later.durationNs =
        std::nextafter(r.durationNs, std::numeric_limits<double>::max());
    EXPECT_NE(fingerprint(later), fingerprint(r));
    EXPECT_FALSE(sameServeResult(later, r));
    later = r;
    later.latency.p99 += 1;
    EXPECT_NE(fingerprint(later), fingerprint(r));
    later = r;
    later.robustness.retries += 1;
    EXPECT_NE(fingerprint(later), fingerprint(r));

    auto lost = r;
    lost.served -= 1;
    EXPECT_NE(checkAccounting(lost, seq.requests), "");
    auto skewed = r;
    skewed.perCore[0].served += 1;
    skewed.perCore[1].served -= 1;
    EXPECT_EQ(checkAccounting(skewed, seq.requests), "");
    skewed.perCore[1].served += 1;
    EXPECT_NE(checkAccounting(skewed, seq.requests), "");

    auto reordered = r;
    auto values = r.latencies.values();
    values.back() += 1;
    reordered.latencies = {};
    for (double v : values)
        reordered.latencies.add(v);
    EXPECT_FALSE(sameServeResult(reordered, r));
}

TEST(OutputChecks, PinnedFingerprintRejectsAPerturbedValue)
{
    // The default-seed faas_mix round reproduces its pinned values ...
    auto w = makeWorkload("faas_mix", kDefaultSeed);
    ASSERT_TRUE(w);
    Tally tally;
    GapLog gaps;
    std::vector<CellTime> cells;
    w->round(nullptr, gaps, tally, cells);
    w->finish(tally);
    for (const auto &e : tally.errors)
        ADD_FAILURE() << e;
    EXPECT_EQ(tally.checkFailures, 0u);

    // ... and a value one digit off is refused.
    const char *pinned = pinnedValue("faas_mix", "Unsafe/guard_pages");
    ASSERT_NE(pinned, nullptr);
    std::string off = pinned;
    off[off.find("served=") + 7] ^= 1;
    EXPECT_NE(checkPinned("faas_mix", "Unsafe/guard_pages", off), "");
    EXPECT_EQ(checkPinned("faas_mix", "Unsafe/guard_pages", pinned), "");
    EXPECT_NE(checkPinned("faas_mix", "no-such-cell", pinned), "");
}

} // namespace
