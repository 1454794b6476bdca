/**
 * @file
 * Tests for the multi-core serving engine: seeded-run reproducibility,
 * worker-count-independent latency multisets, admission control and
 * shedding, work stealing, and the preemption path that round-trips HFI
 * state through the §3.3.3 save-hfi-regs context switch mid-sandbox.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "serve/load_gen.h"
#include "serve/shard_queue.h"

namespace
{

using namespace hfi;
using namespace hfi::serve;

/** A small real handler: stores plus metered compute, pure in seed. */
Handler
smallHandler()
{
    return [](sfi::Sandbox &s, std::uint32_t seed) {
        for (int i = 0; i < 16; ++i)
            s.store<std::uint32_t>(64 + (i % 16) * 4, seed + i);
        s.chargeOps(2'000);
    };
}

/** A longer handler, several quanta worth of compute. */
Handler
longHandler()
{
    return [](sfi::Sandbox &s, std::uint32_t seed) {
        for (int i = 0; i < 64; ++i)
            s.store<std::uint32_t>(64 + (i % 16) * 4, seed + i);
        s.chargeOps(100'000);
    };
}

EngineConfig
sparseConfig(unsigned workers)
{
    EngineConfig ec;
    ec.workers = workers;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 48;
    // Sparse: mean interarrival orders of magnitude above service, so
    // requests never contend for a core even in the 1-worker run.
    ec.meanInterarrivalNs = 5'000'000.0;
    ec.seed = 42;
    ec.worker.teardownBatch = 8;
    return ec;
}

std::vector<double>
sortedLatencies(const ServeResult &res)
{
    auto v = res.latencies.values();
    std::sort(v.begin(), v.end());
    return v;
}

// ----------------------------------------------------------- load gen

TEST(LoadGen, SplitmixIsDeterministic)
{
    std::uint64_t a = 7, b = 7;
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(splitmix64(a), splitmix64(b));
    std::uint64_t c = 8;
    EXPECT_NE(splitmix64(a), splitmix64(c));
}

TEST(LoadGen, PoissonArrivalsReproducibleAndOrdered)
{
    const auto s1 = poissonArrivals(1000, 10'000.0, 99);
    const auto s2 = poissonArrivals(1000, 10'000.0, 99);
    ASSERT_EQ(s1.size(), 1000u);
    double prev = -1;
    for (std::size_t i = 0; i < 1000; ++i) {
        const auto &a = s1[i];
        const auto &b = s2[i];
        EXPECT_EQ(a.arrivalNs, b.arrivalNs);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_GE(a.arrivalNs, prev); // non-decreasing
        prev = a.arrivalNs;
    }
}

TEST(LoadGen, PoissonMeanNearConfigured)
{
    const auto arrivals = poissonArrivals(20'000, 10'000.0, 3);
    const double span = arrivals.back().arrivalNs;
    const double mean = span / (20'000 - 1);
    EXPECT_NEAR(mean, 10'000.0, 500.0); // ~sigma/sqrt(n) tolerance
}

TEST(LoadGen, DifferentSeedsDifferentArrivals)
{
    const auto a = poissonArrivals(10, 10'000.0, 1);
    const auto b = poissonArrivals(10, 10'000.0, 2);
    EXPECT_NE(a[1].arrivalNs, b[1].arrivalNs);
}

TEST(LoadGen, ClosedLoopKeepsPopulationBounded)
{
    ClosedLoopSource src(3, 10, 0.0);
    // Only the population can be outstanding at once.
    auto r0 = src.next(), r1 = src.next(), r2 = src.next();
    ASSERT_TRUE(r0 && r1 && r2);
    EXPECT_FALSE(src.next().has_value()); // all clients busy
    src.onComplete(*r1, 500.0);
    const auto r3 = src.next();
    ASSERT_TRUE(r3.has_value());
    EXPECT_EQ(r3->client, r1->client);
    EXPECT_EQ(r3->arrivalNs, 500.0);
}

// -------------------------------------------------------- shard queue

TEST(ShardedQueues, BoundedShardSheds)
{
    ShardedQueues q(1, 2);
    Request r;
    EXPECT_TRUE(q.offer(0, r));
    EXPECT_TRUE(q.offer(0, r));
    EXPECT_FALSE(q.offer(0, r));
    EXPECT_EQ(q.shedCount(), 1u);
    EXPECT_EQ(q.maxDepth(), 2u);
}

TEST(ShardedQueues, StealsFromDeepestShard)
{
    ShardedQueues q(3, 0);
    Request r;
    q.offer(1, r);
    q.offer(2, r);
    q.offer(2, r);
    EXPECT_EQ(q.pickFor(0, true), 2);  // deepest
    EXPECT_EQ(q.pickFor(0, false), -1); // no stealing
    EXPECT_EQ(q.pickFor(1, true), 1);  // own shard first
}

// ------------------------------------------------------------- engine

TEST(ServeEngine, SameSeedBitIdentical)
{
    auto cfg = sparseConfig(4);
    cfg.meanInterarrivalNs = 20'000.0; // dense enough to queue
    const auto a = ServeEngine(cfg, smallHandler()).run();
    const auto b = ServeEngine(cfg, smallHandler()).run();
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.durationNs, b.durationNs);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    EXPECT_EQ(a.latencies.values(), b.latencies.values());
}

TEST(ServeEngine, LatencyMultisetIndependentOfWorkerCount)
{
    // With sparse arrivals no request ever waits for a core, so the
    // per-request latency multiset must be *identical* for any worker
    // count — the determinism contract from ISSUE.md.
    const auto one = ServeEngine(sparseConfig(1), smallHandler()).run();
    const auto two = ServeEngine(sparseConfig(2), smallHandler()).run();
    const auto eight = ServeEngine(sparseConfig(8), smallHandler()).run();
    ASSERT_EQ(one.served, 48u);
    ASSERT_EQ(two.served, 48u);
    ASSERT_EQ(eight.served, 48u);
    EXPECT_EQ(sortedLatencies(one), sortedLatencies(two));
    EXPECT_EQ(sortedLatencies(one), sortedLatencies(eight));
}

TEST(ServeEngine, PercentilesAreOrdered)
{
    auto cfg = sparseConfig(2);
    cfg.meanInterarrivalNs = 10'000.0;
    cfg.requests = 200;
    const auto res = ServeEngine(cfg, smallHandler()).run();
    EXPECT_GT(res.latency.p50, 0.0);
    EXPECT_LE(res.latency.p50, res.latency.p95);
    EXPECT_LE(res.latency.p95, res.latency.p99);
    EXPECT_LE(res.latency.p99, res.latency.p999);
    EXPECT_EQ(res.latencies.count(), res.served);
}

TEST(ServeEngine, ShedsUnderOverloadWithBoundedQueues)
{
    EngineConfig ec;
    ec.workers = 2;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 300;
    ec.meanInterarrivalNs = 500.0; // far beyond capacity
    ec.queueCapacity = 4;
    ec.seed = 7;
    const auto res = ServeEngine(ec, longHandler()).run();
    EXPECT_GT(res.shed, 0u);
    EXPECT_EQ(res.served + res.shed + res.rejected, 300u);
    // Shed requests must not contribute latency samples.
    EXPECT_EQ(res.latencies.count(), res.served);
    // The bound holds.
    EXPECT_LE(res.maxQueueDepth, 4u);
}

TEST(ServeEngine, UnboundedQueueNeverSheds)
{
    EngineConfig ec;
    ec.workers = 1;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 100;
    ec.meanInterarrivalNs = 500.0;
    ec.queueCapacity = 0;
    const auto res = ServeEngine(ec, smallHandler()).run();
    EXPECT_EQ(res.shed, 0u);
    EXPECT_EQ(res.served, 100u);
}

TEST(ServeEngine, WorkStealingDrainsASingleHotShard)
{
    EngineConfig ec;
    ec.workers = 2;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 120;
    ec.meanInterarrivalNs = 2'000.0;
    ec.sharding = Sharding::SingleShard; // everything lands on shard 0
    ec.workStealing = true;
    const auto res = ServeEngine(ec, smallHandler()).run();
    EXPECT_EQ(res.served, 120u);
    EXPECT_GT(res.stolen, 0u);

    // Stealing turns the second core from dead weight into throughput.
    auto solo = ec;
    solo.workers = 1;
    const auto one = ServeEngine(solo, smallHandler()).run();
    EXPECT_GT(res.throughputRps, one.throughputRps);
}

TEST(ServeEngine, ClosedLoopModeServesAllRequests)
{
    EngineConfig ec;
    ec.workers = 2;
    ec.mode = LoadMode::ClosedLoop;
    ec.clients = 8;
    ec.requests = 64;
    const auto res = ServeEngine(ec, smallHandler()).run();
    EXPECT_EQ(res.served, 64u);
    EXPECT_GT(res.meanLatencyNs, 0.0);
}

TEST(ServeEngine, ClosedLoopClientsStartAfterPoolWarmup)
{
    // One client against one warm instance: every request is served
    // alone, so every latency is the same pure service time. A client
    // that started before the pool was warm would see the instance
    // creation in its first sample.
    EngineConfig ec;
    ec.mode = LoadMode::ClosedLoop;
    ec.clients = 1;
    ec.requests = 16;
    ec.worker.poolSize = 1;
    ec.worker.dispatchViaScheduler = false;
    const auto res = ServeEngine(ec, [](sfi::Sandbox &s, std::uint32_t) {
                         s.chargeOps(5'000);
                     }).run();
    ASSERT_EQ(res.served, 16u);
    // Equal up to the rounding of absolute virtual times (~1e-12 ns);
    // an instance creation would add microseconds.
    constexpr double kEps = 1e-6;
    const auto &lat = res.latencies.values();
    for (double l : lat)
        EXPECT_NEAR(l, lat.front(), kEps);
    // The run is measured from the end of the warm-up: back-to-back
    // service, nothing else.
    EXPECT_NEAR(res.durationNs, 16 * lat.front(), kEps);
}

// --------------------------------------------- preemption / HFI state

TEST(ServeEngine, PreemptionRoundTripsHfiStateMidSandbox)
{
    EngineConfig ec;
    ec.workers = 2;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 40;
    ec.meanInterarrivalNs = 50'000.0;
    ec.worker.scheme = Scheme::HfiNative;
    ec.worker.quantumNs = 5'000.0; // several quanta per request
    const auto res = ServeEngine(ec, longHandler()).run();
    EXPECT_EQ(res.served, 40u);
    EXPECT_GT(res.preemptions, 0u);
    // §3.3.3: the native sandbox's live register file survives every
    // save/restore round trip.
    EXPECT_EQ(res.hfiStateMismatches, 0u);
    // Dispatch alone costs 2 switches per request; preemptions add 2
    // more each.
    EXPECT_GE(res.contextSwitches,
              2 * res.served + 2 * res.preemptions);
}

TEST(ServeEngine, SwitchOnExitSurvivesPreemption)
{
    EngineConfig ec;
    ec.workers = 1;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 20;
    ec.meanInterarrivalNs = 50'000.0;
    ec.worker.scheme = Scheme::HfiSwitchOnExit;
    ec.worker.quantumNs = 5'000.0;
    const auto res = ServeEngine(ec, longHandler()).run();
    EXPECT_EQ(res.served, 20u);
    EXPECT_GT(res.preemptions, 0u);
    EXPECT_EQ(res.hfiStateMismatches, 0u);
}

TEST(ServeEngine, QuantumZeroNeverPreempts)
{
    auto cfg = sparseConfig(1);
    cfg.worker.scheme = Scheme::HfiNative;
    cfg.worker.quantumNs = 0;
    const auto res = ServeEngine(cfg, longHandler()).run();
    EXPECT_EQ(res.preemptions, 0u);
    // Dispatch still goes through the scheduler: 2 per request.
    EXPECT_EQ(res.contextSwitches, 2 * res.served);
}

TEST(ServeEngine, PreemptionCostShowsUpInLatency)
{
    auto base = sparseConfig(1);
    base.requests = 24;
    base.worker.scheme = Scheme::HfiNative;
    const auto unpreempted = ServeEngine(base, longHandler()).run();
    auto preempted_cfg = base;
    preempted_cfg.worker.quantumNs = 5'000.0;
    const auto preempted = ServeEngine(preempted_cfg, longHandler()).run();
    // Context-switch + xsave/xrstor costs are charged, so the preempted
    // configuration is strictly slower.
    EXPECT_GT(preempted.meanLatencyNs, unpreempted.meanLatencyNs);
}

// --------------------------------------------------- pools / teardown

TEST(ServeEngine, FreshInstancePerRequestWithBatchedTeardown)
{
    auto cfg = sparseConfig(1);
    cfg.requests = 48;
    cfg.worker.teardownBatch = 16;
    const auto res = ServeEngine(cfg, smallHandler()).run();
    EXPECT_EQ(res.instancesCreated, 48u);
    EXPECT_EQ(res.reclaimBatches, 3u); // 48 / 16
    EXPECT_EQ(res.rejected, 0u);
}

// ------------------------------------------------------- configuration

TEST(ServeEngine, ConfigValidatedPerField)
{
    // One row per way an EngineConfig cannot run; the constructor
    // throws std::invalid_argument naming the field.
    struct Row
    {
        const char *field;
        void (*mutate)(EngineConfig &);
    };
    const Row rows[] = {
        {"workers", [](EngineConfig &c) { c.workers = 0; }},
        {"meanInterarrivalNs",
         [](EngineConfig &c) { c.meanInterarrivalNs = -1.0; }},
        {"meanInterarrivalNs",
         [](EngineConfig &c) { c.meanInterarrivalNs = 0.0; }},
        {"meanInterarrivalNs",
         [](EngineConfig &c) { c.meanInterarrivalNs = std::nan(""); }},
        {"meanInterarrivalNs",
         [](EngineConfig &c) { c.meanInterarrivalNs = HUGE_VAL; }},
        {"clients",
         [](EngineConfig &c) {
             c.mode = LoadMode::ClosedLoop;
             c.clients = 0;
         }},
        {"teardownBatch", [](EngineConfig &c) { c.worker.teardownBatch = 0; }},
    };
    for (const Row &row : rows) {
        auto cfg = sparseConfig(2);
        row.mutate(cfg);
        SCOPED_TRACE(row.field);
        try {
            ServeEngine engine(cfg, smallHandler());
            ADD_FAILURE() << "accepted a bad " << row.field;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(row.field),
                      std::string::npos)
                << e.what();
        }
    }
    // What each rule leaves legal: an interarrival gap is not read in a
    // closed loop, nor a client count in an open one.
    auto closed = sparseConfig(1);
    closed.mode = LoadMode::ClosedLoop;
    closed.clients = 4;
    closed.meanInterarrivalNs = std::nan("");
    EXPECT_EQ(ServeEngine(closed, smallHandler()).run().served, 48u);
    auto open = sparseConfig(1);
    open.clients = 0;
    open.worker.teardownBatch = 1;
    const auto res = ServeEngine(open, smallHandler()).run();
    EXPECT_EQ(res.served, 48u);
    EXPECT_EQ(res.reclaimBatches, 48u);
}

// ---------------------------------------------------------------------
// ShardedQueues edge cases and counter properties.

TEST(ShardedQueues, StealTieGoesToLowestIndex)
{
    // Shards 1 and 2 equally deep: worker 0 must steal from shard 1
    // (strict > comparison, first-seen wins).
    ShardedQueues q(3, 0);
    Request r;
    q.offer(1, r);
    q.offer(1, r);
    q.offer(2, r);
    q.offer(2, r);
    EXPECT_EQ(q.pickFor(0, true), 1);
    // Depth 2 beats depth 1 regardless of index order.
    q.offer(2, r);
    EXPECT_EQ(q.pickFor(0, true), 2);
}

TEST(ShardedQueues, StealSkipsOwnEmptyShardAndHonorsFlag)
{
    ShardedQueues q(2, 0);
    Request r;
    q.offer(1, r);
    EXPECT_EQ(q.pickFor(0, false), -1); // stealing off: stay dry
    EXPECT_EQ(q.pickFor(0, true), 1);
    EXPECT_EQ(q.pickFor(1, false), 1); // own shard needs no stealing
}

TEST(ShardedQueues, CapacityZeroNeverSheds)
{
    ShardedQueues q(2, 0);
    Request r;
    for (int i = 0; i < 10'000; ++i)
        EXPECT_TRUE(q.offer(static_cast<unsigned>(i % 2), r));
    EXPECT_EQ(q.shedCount(), 0u);
    EXPECT_EQ(q.maxDepth(), 5'000u);
}

TEST(ShardedQueues, CountersMatchReferenceModelAcrossInterleavings)
{
    // Drive offer/take/steal interleavings from a seeded stream and
    // check shed (global and per shard) plus maxDepth against a plain
    // reference model.
    constexpr unsigned kShards = 3;
    constexpr std::size_t kCap = 4;
    ShardedQueues q(kShards, kCap);
    std::vector<std::size_t> refDepth(kShards, 0);
    std::vector<std::size_t> refShed(kShards, 0);
    std::size_t refMax = 0;

    std::uint64_t state = 0xfeedULL;
    for (int step = 0; step < 2'000; ++step) {
        const std::uint64_t roll = splitmix64(state);
        const auto shard = static_cast<unsigned>(roll % kShards);
        if ((roll >> 8) % 3 != 0) { // two thirds arrivals
            Request r;
            r.id = static_cast<std::uint64_t>(step);
            const bool admitted = q.offer(shard, r);
            if (refDepth[shard] >= kCap) {
                EXPECT_FALSE(admitted);
                ++refShed[shard];
            } else {
                EXPECT_TRUE(admitted);
                ++refDepth[shard];
                refMax = std::max(refMax, refDepth[shard]);
            }
        } else { // one third serves, stealing when dry
            const int pick = q.pickFor(shard, true);
            int refPick = -1;
            if (refDepth[shard] > 0) {
                refPick = static_cast<int>(shard);
            } else {
                std::size_t best = 0;
                for (unsigned s = 0; s < kShards; ++s)
                    if (s != shard && refDepth[s] > best) {
                        best = refDepth[s];
                        refPick = static_cast<int>(s);
                    }
            }
            ASSERT_EQ(pick, refPick);
            if (pick >= 0) {
                q.take(static_cast<unsigned>(pick));
                --refDepth[static_cast<unsigned>(pick)];
            }
        }
    }

    std::size_t refShedTotal = 0;
    for (unsigned s = 0; s < kShards; ++s) {
        EXPECT_EQ(q.shedCount(s), refShed[s]) << "shard " << s;
        EXPECT_EQ(q.size(s), refDepth[s]) << "shard " << s;
        refShedTotal += refShed[s];
    }
    EXPECT_EQ(q.shedCount(), refShedTotal);
    EXPECT_EQ(q.maxDepth(), refMax);
    EXPECT_GT(refShedTotal, 0u); // the stream actually exercised shedding
}

TEST(ShardedQueues, TakePreservesFifoOrderEvenWhenStolen)
{
    ShardedQueues q(2, 0);
    for (std::uint64_t i = 0; i < 4; ++i) {
        Request r;
        r.id = i;
        q.offer(0, r);
    }
    // Worker 1 steals: it must receive the *oldest* request (FIFO
    // stealing is kind to tail latency).
    const int pick = q.pickFor(1, true);
    ASSERT_EQ(pick, 0);
    EXPECT_EQ(q.take(0).id, 0u);
    EXPECT_EQ(q.take(0).id, 1u);
    EXPECT_EQ(q.take(0).id, 2u);
}

} // namespace
