/**
 * @file
 * Tests for the serving engine's real-threads mode: one host
 * std::thread per simulated core, which is only sound because an
 * open-loop, round-robin, no-stealing configuration decomposes into
 * independent per-shard event loops. The contract is bit-identity with
 * the sequential driver — not "statistically close", identical — so
 * these tests compare every merged statistic and the full per-request
 * latency sample vector.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "serve/engine.h"

namespace
{

using namespace hfi;
using namespace hfi::serve;

Handler
testHandler()
{
    return [](sfi::Sandbox &s, std::uint32_t seed) {
        for (int i = 0; i < 16; ++i)
            s.store<std::uint32_t>(64 + (i % 16) * 4, seed + i);
        s.chargeOps(30'000);
    };
}

EngineConfig
threadableConfig(unsigned workers)
{
    EngineConfig ec;
    ec.workers = workers;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 300;
    ec.meanInterarrivalNs = 4'000.0;
    ec.seed = 77;
    ec.workStealing = false;
    ec.sharding = Sharding::RoundRobin;
    ec.worker.scheme = Scheme::HfiNative;
    ec.worker.quantumNs = 50'000.0;
    return ec;
}

TEST(ServeThreads, IdenticalComparesEveryFieldButUsedThreads)
{
    auto cfg = threadableConfig(2);
    const ServeResult base = ServeEngine(cfg, testHandler()).run();
    ASSERT_FALSE(base.perCore.empty());
    ServeResult other = base;
    other.usedThreads = 2;
    EXPECT_TRUE(identical(base, other));

    // Fields the hand-written gates used to skip.
    other = base;
    ++other.stolen;
    EXPECT_FALSE(identical(base, other));
    other = base;
    ++other.reclaimBatches;
    EXPECT_FALSE(identical(base, other));
    other = base;
    ++other.hfiStateMismatches;
    EXPECT_FALSE(identical(base, other));
    other = base;
    other.latency.p95 += 1.0;
    EXPECT_FALSE(identical(base, other));
    other = base;
    other.latency.p999 += 1.0;
    EXPECT_FALSE(identical(base, other));
    other = base;
    ++other.robustness.retries;
    EXPECT_FALSE(identical(base, other));
    other = base;
    ++other.perCore[0].served;
    EXPECT_FALSE(identical(base, other));
    other = base;
    other.latencies.add(1.0);
    EXPECT_FALSE(identical(base, other));
}

TEST(ServeThreads, ThreadedRunIsBitIdenticalToSequential)
{
    for (unsigned workers : {2u, 3u, 4u}) {
        SCOPED_TRACE(workers);
        auto cfg = threadableConfig(workers);
        cfg.realThreads = true;
        const auto threaded = ServeEngine(cfg, testHandler()).run();
        EXPECT_EQ(threaded.usedThreads, workers);

        cfg.realThreads = false;
        const auto sequential = ServeEngine(cfg, testHandler()).run();
        EXPECT_EQ(sequential.usedThreads, 1u);

        EXPECT_TRUE(identical(threaded, sequential));
    }
}

TEST(ServeThreads, BoundedQueuesShedIdenticallyUnderThreads)
{
    // Shedding is the subtlest part of the decomposition argument: the
    // admit-vs-serve tie break must play out per shard exactly as it
    // does in the global loop.
    auto cfg = threadableConfig(4);
    cfg.requests = 600;
    cfg.meanInterarrivalNs = 1'000.0; // heavy overload
    cfg.queueCapacity = 4;
    cfg.realThreads = true;
    const auto threaded = ServeEngine(cfg, testHandler()).run();
    EXPECT_GT(threaded.shed, 0u);

    cfg.realThreads = false;
    const auto sequential = ServeEngine(cfg, testHandler()).run();
    EXPECT_TRUE(identical(threaded, sequential));
}

TEST(ServeThreads, ThreadedRunsAreRepeatable)
{
    auto cfg = threadableConfig(4);
    cfg.realThreads = true;
    const auto a = ServeEngine(cfg, testHandler()).run();
    const auto b = ServeEngine(cfg, testHandler()).run();
    EXPECT_TRUE(identical(a, b));
}

TEST(ServeThreads, FaultCampaignIsBitIdenticalUnderThreads)
{
    // The whole robustness pipeline — injection, retries with backoff,
    // watchdog timeouts, quarantine + background respawn out of warm
    // pools — must replay identically when each shard runs on its own
    // host thread. Fault decisions are pure in (seed, id, attempt), so
    // partitioning by id cannot change any request's fate.
    auto cfg = threadableConfig(4);
    cfg.requests = 600;
    cfg.worker.poolSize = 2;
    cfg.worker.respawnDelayNs = 50'000.0;
    cfg.worker.requestTimeoutNs = 150'000.0;
    cfg.worker.maxRetries = 2;
    cfg.worker.retryBackoffNs = 10'000.0;
    cfg.worker.faults.rate = 0.1;
    cfg.worker.faults.stallNs = 400'000.0;

    cfg.realThreads = true;
    const auto threaded = ServeEngine(cfg, testHandler()).run();
    EXPECT_EQ(threaded.usedThreads, 4u);
    EXPECT_GT(threaded.robustness.exits, 0u);
    EXPECT_GT(threaded.robustness.quarantines, 0u);

    cfg.realThreads = false;
    const auto sequential = ServeEngine(cfg, testHandler()).run();
    EXPECT_EQ(sequential.usedThreads, 1u);
    EXPECT_TRUE(identical(threaded, sequential));
}

TEST(ServeThreads, VaExhaustionFlushesThePartialTeardownBatch)
{
    // A 16 or 64 GiB arena holds only a handful of 8 GiB guard-page
    // reservations, far fewer than a 32-instance teardown batch. A
    // create that finds the arena full must reclaim the retired
    // instances still waiting for their batch instead of rejecting.
    for (unsigned vaBits : {34u, 36u}) {
        SCOPED_TRACE(vaBits);
        auto cfg = threadableConfig(2);
        cfg.requests = 200;
        cfg.worker.backend = sfi::BackendKind::GuardPages;
        cfg.worker.vaBits = vaBits;
        cfg.realThreads = true;
        const auto threaded = ServeEngine(cfg, testHandler()).run();
        EXPECT_EQ(threaded.served, cfg.requests);
        EXPECT_EQ(threaded.rejected, 0u);
        EXPECT_GT(threaded.reclaimBatches, 0u);

        cfg.realThreads = false;
        const auto sequential = ServeEngine(cfg, testHandler()).run();
        EXPECT_TRUE(identical(threaded, sequential));
    }
}

TEST(ServeThreads, ClosedLoopRejectionsStillAnswerTheirClients)
{
    // An 8 GiB guard-page reservation never fits in a 1 GiB arena.
    // Each refusal is an error response, so the clients keep sending
    // until every request has been issued and answered.
    auto cfg = threadableConfig(1);
    cfg.mode = LoadMode::ClosedLoop;
    cfg.clients = 4;
    cfg.requests = 200;
    cfg.worker.backend = sfi::BackendKind::GuardPages;
    cfg.worker.vaBits = 30;
    const auto res = ServeEngine(cfg, testHandler()).run();
    EXPECT_EQ(res.rejected, cfg.requests);
    EXPECT_EQ(res.served, 0u);
    EXPECT_EQ(res.served + res.shed + res.rejected + res.robustness.failed,
              cfg.requests);
}

TEST(ServeThreads, OpenLoopRejectionsMatchAcrossDrivers)
{
    auto cfg = threadableConfig(4);
    cfg.worker.backend = sfi::BackendKind::GuardPages;
    cfg.worker.vaBits = 30;
    cfg.realThreads = true;
    const auto threaded = ServeEngine(cfg, testHandler()).run();
    EXPECT_EQ(threaded.rejected, cfg.requests);
    EXPECT_EQ(threaded.instancesCreated, 0u);
    // Each refusal keeps its core busy for the failed create and the
    // scheduler round trip, so the run has a duration.
    EXPECT_GT(threaded.durationNs, 0.0);

    cfg.realThreads = false;
    const auto sequential = ServeEngine(cfg, testHandler()).run();
    EXPECT_TRUE(identical(threaded, sequential));
}

TEST(ServeThreads, HandlerExceptionReachesTheCaller)
{
    // A throwing handler on a worker thread surfaces from run() like it
    // does in the sequential driver, after every thread has joined.
    const Handler throwing = [](sfi::Sandbox &s, std::uint32_t seed) {
        s.chargeOps(1'000);
        if (seed % 5 == 0)
            throw std::runtime_error("handler failed");
    };
    auto cfg = threadableConfig(4);
    cfg.realThreads = true;
    EXPECT_THROW(ServeEngine(cfg, throwing).run(), std::runtime_error);
    cfg.realThreads = false;
    EXPECT_THROW(ServeEngine(cfg, throwing).run(), std::runtime_error);
}

TEST(ServeThreads, NonDecomposableConfigsAreRejected)
{
    // Work stealing couples the shards.
    auto stealing = threadableConfig(4);
    stealing.realThreads = true;
    stealing.workStealing = true;
    EXPECT_THROW(ServeEngine(stealing, testHandler()).run(),
                 std::invalid_argument);

    // Closed loop couples arrivals to completions.
    auto closed = threadableConfig(4);
    closed.realThreads = true;
    closed.mode = LoadMode::ClosedLoop;
    closed.clients = 8;
    EXPECT_THROW(ServeEngine(closed, testHandler()).run(),
                 std::invalid_argument);

    // Single-shard routing funnels everything to shard 0.
    auto single = threadableConfig(4);
    single.realThreads = true;
    single.sharding = Sharding::SingleShard;
    EXPECT_THROW(ServeEngine(single, testHandler()).run(),
                 std::invalid_argument);

    // One worker: the sequential driver is the per-shard loop already.
    auto one = threadableConfig(1);
    one.realThreads = true;
    EXPECT_EQ(ServeEngine(one, testHandler()).run().usedThreads, 1u);
}

} // namespace
