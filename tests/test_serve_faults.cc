/**
 * @file
 * Tests for the fault-injection and robustness layer: deterministic
 * fault schedules, per-exit-reason accounting through the real src/core
 * checker paths, retry/timeout/quarantine semantics, pool respawn
 * liveness, per-core breakdown consistency, and the closed-loop seed
 * compatibility switch.
 */

#include <gtest/gtest.h>

#include <map>

#include "serve/engine.h"
#include "serve/faults.h"
#include "serve/load_gen.h"

namespace
{

using namespace hfi;
using namespace hfi::serve;

Handler
smallHandler()
{
    return [](sfi::Sandbox &s, std::uint32_t seed) {
        for (int i = 0; i < 16; ++i)
            s.store<std::uint32_t>(64 + (i % 16) * 4, seed + i);
        s.chargeOps(2'000);
    };
}

/** A faulty-serving configuration with every robustness knob engaged. */
EngineConfig
faultyConfig(Scheme scheme, double rate, std::uint64_t seed = 7)
{
    EngineConfig ec;
    ec.workers = 2;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 400;
    ec.meanInterarrivalNs = 20'000.0;
    ec.seed = seed;
    ec.queueCapacity = 64;
    ec.workStealing = false;
    ec.worker.scheme = scheme;
    ec.worker.quantumNs = 0;
    ec.worker.poolSize = 2;
    ec.worker.respawnDelayNs = 50'000.0;
    ec.worker.requestTimeoutNs = 100'000.0;
    ec.worker.maxRetries = 2;
    ec.worker.retryBackoffNs = 10'000.0;
    ec.worker.faults.rate = rate;
    ec.worker.faults.stallNs = 500'000.0;
    return ec;
}

void
expectSameRobustness(const RobustnessStats &a, const RobustnessStats &b)
{
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.exits, b.exits);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.quarantines, b.quarantines);
    EXPECT_EQ(a.respawns, b.respawns);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.poolWaits, b.poolWaits);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.shed, b.shed);
    for (unsigned i = 0; i < core::kNumExitReasons; ++i)
        EXPECT_EQ(a.exitsByReason[i], b.exitsByReason[i]);
}

// ---------------------------------------------------------------------
// FaultInjector: the decision stream.

TEST(FaultInjector, DecisionIsPureFunctionOfSeedIdAttempt)
{
    FaultConfig fc;
    fc.rate = 0.3;
    const FaultInjector a(fc, 99);
    const FaultInjector b(fc, 99);
    for (std::uint64_t id = 0; id < 200; ++id)
        for (unsigned attempt = 0; attempt < 3; ++attempt)
            EXPECT_EQ(a.decide(id, attempt), b.decide(id, attempt));
}

TEST(FaultInjector, DifferentSeedsGiveDifferentSchedules)
{
    FaultConfig fc;
    fc.rate = 0.3;
    const FaultInjector a(fc, 1);
    const FaultInjector b(fc, 2);
    unsigned differing = 0;
    for (std::uint64_t id = 0; id < 400; ++id)
        differing += a.decide(id, 0) != b.decide(id, 0);
    EXPECT_GT(differing, 0u);
}

TEST(FaultInjector, RateControlsInjectionFraction)
{
    FaultConfig fc;
    fc.rate = 0.1;
    const FaultInjector inj(fc, 5);
    unsigned injected = 0;
    const unsigned n = 10'000;
    for (std::uint64_t id = 0; id < n; ++id)
        injected += inj.decide(id, 0) != FaultKind::None;
    // A 10% Bernoulli over 10k draws: expect 1000 +- a generous 5 sigma.
    EXPECT_GT(injected, 850u);
    EXPECT_LT(injected, 1150u);
}

TEST(FaultInjector, RateZeroNeverInjects)
{
    FaultConfig fc;
    fc.rate = 0.0;
    const FaultInjector inj(fc, 5);
    for (std::uint64_t id = 0; id < 1000; ++id)
        EXPECT_EQ(inj.decide(id, 0), FaultKind::None);
}

TEST(FaultInjector, RetriesDrawIndependentDecisions)
{
    FaultConfig fc;
    fc.rate = 0.5;
    const FaultInjector inj(fc, 11);
    // At 50% a faulted first attempt's retry must not be doomed to the
    // same fate: some id faulted at attempt 0 runs clean at attempt 1.
    bool recovered = false;
    for (std::uint64_t id = 0; id < 200 && !recovered; ++id)
        recovered = inj.decide(id, 0) != FaultKind::None &&
                    inj.decide(id, 1) == FaultKind::None;
    EXPECT_TRUE(recovered);
}

// ---------------------------------------------------------------------
// FaultInjector::raise — the real checker paths and the MSR.

class RaiseTest : public ::testing::Test
{
  protected:
    vm::VirtualClock clock;
    core::HfiContext ctx{clock};
    FaultConfig fc;

    FaultInjector
    injector()
    {
        fc.rate = 1.0;
        return FaultInjector(fc, 3);
    }
};

TEST_F(RaiseTest, DataOobRecordsDataBoundsViolation)
{
    const auto reason = injector().raise(FaultKind::DataOob, ctx);
    EXPECT_EQ(reason, core::ExitReason::DataBoundsViolation);
    EXPECT_EQ(ctx.exitReason(), core::ExitReason::DataBoundsViolation);
    EXPECT_FALSE(ctx.enabled());
}

TEST_F(RaiseTest, CodeOobRecordsCodeBoundsViolation)
{
    const auto reason = injector().raise(FaultKind::CodeOob, ctx);
    EXPECT_EQ(reason, core::ExitReason::CodeBoundsViolation);
    EXPECT_EQ(ctx.exitReason(), core::ExitReason::CodeBoundsViolation);
}

TEST_F(RaiseTest, HmovOverflowRecordsOverflow)
{
    const auto reason = injector().raise(FaultKind::HmovOverflow, ctx);
    EXPECT_EQ(reason, core::ExitReason::HmovOverflow);
    EXPECT_EQ(ctx.exitReason(), core::ExitReason::HmovOverflow);
}

TEST_F(RaiseTest, SyscallStormInNativeSandboxRedirects)
{
    core::SandboxConfig sc;
    sc.isHybrid = false;
    sc.exitHandler = 0x7000'0000;
    ctx.enter(sc);
    const auto reason = injector().raise(FaultKind::SyscallStorm, ctx);
    // §4.4: the syscall is converted into a jump to the exit handler.
    EXPECT_EQ(reason, core::ExitReason::Syscall);
    EXPECT_EQ(ctx.exitReason(), core::ExitReason::Syscall);
    EXPECT_FALSE(ctx.enabled());
}

TEST_F(RaiseTest, SyscallStormOutsideHfiStillRecordsSyscall)
{
    const auto reason = injector().raise(FaultKind::SyscallStorm, ctx);
    EXPECT_EQ(reason, core::ExitReason::Syscall);
}

TEST_F(RaiseTest, StallAndPoisonAreNotExits)
{
    EXPECT_EQ(injector().raise(FaultKind::Stall, ctx),
              core::ExitReason::None);
    EXPECT_EQ(injector().raise(FaultKind::Poison, ctx),
              core::ExitReason::None);
    EXPECT_FALSE(faultRaisesExit(FaultKind::Stall));
    EXPECT_FALSE(faultRaisesExit(FaultKind::Poison));
    EXPECT_TRUE(faultRaisesExit(FaultKind::DataOob));
    EXPECT_TRUE(faultRaisesExit(FaultKind::SyscallStorm));
}

// ---------------------------------------------------------------------
// Engine-level robustness semantics.

TEST(ServeFaults, FaultFreeRunsMatchStockEngine)
{
    // Rate 0 with the robustness knobs *off* must reproduce the stock
    // engine's result exactly — the bugfix-PR non-regression contract.
    EngineConfig stock;
    stock.workers = 2;
    stock.requests = 200;
    stock.meanInterarrivalNs = 20'000.0;
    stock.seed = 13;

    EngineConfig knobs = stock;
    knobs.worker.faults.rate = 0.0;
    knobs.worker.maxRetries = 3; // irrelevant without faults/timeouts

    const auto a = ServeEngine(stock, smallHandler()).run();
    const auto b = ServeEngine(knobs, smallHandler()).run();
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.durationNs, b.durationNs);
    EXPECT_EQ(a.latencies.values(), b.latencies.values());
    EXPECT_EQ(b.robustness.exits, 0u);
    EXPECT_EQ(b.robustness.retries, 0u);
}

TEST(ServeFaults, SameSeedReproducesBitForBit)
{
    for (Scheme scheme : {Scheme::Unsafe, Scheme::HfiNative}) {
        const auto a =
            ServeEngine(faultyConfig(scheme, 0.08), smallHandler()).run();
        const auto b =
            ServeEngine(faultyConfig(scheme, 0.08), smallHandler()).run();
        EXPECT_EQ(a.served, b.served);
        EXPECT_EQ(a.durationNs, b.durationNs);
        EXPECT_EQ(a.latencies.values(), b.latencies.values());
        expectSameRobustness(a.robustness, b.robustness);
    }
}

TEST(ServeFaults, DifferentSeedsDiverge)
{
    const auto a =
        ServeEngine(faultyConfig(Scheme::HfiNative, 0.08, 7), smallHandler())
            .run();
    const auto b =
        ServeEngine(faultyConfig(Scheme::HfiNative, 0.08, 8), smallHandler())
            .run();
    EXPECT_NE(a.latencies.values(), b.latencies.values());
}

TEST(ServeFaults, ExitsAreAccountedByReason)
{
    const auto res =
        ServeEngine(faultyConfig(Scheme::HfiNative, 0.15), smallHandler())
            .run();
    EXPECT_GT(res.robustness.exits, 0u);
    std::uint64_t byReason = 0;
    for (unsigned i = 0; i < core::kNumExitReasons; ++i)
        byReason += res.robustness.exitsByReason[i];
    EXPECT_EQ(byReason, res.robustness.exits);
    // The injected mix must surface each HFI-exit family through the
    // real checkers at this rate (60 expected faults).
    EXPECT_GT(res.robustness.exitsByReason[static_cast<unsigned>(
                  core::ExitReason::DataBoundsViolation)],
              0u);
    EXPECT_GT(res.robustness.exitsByReason[static_cast<unsigned>(
                  core::ExitReason::CodeBoundsViolation)],
              0u);
    EXPECT_GT(res.robustness.exitsByReason[static_cast<unsigned>(
                  core::ExitReason::Syscall)],
              0u);
    EXPECT_GT(res.robustness.exitsByReason[static_cast<unsigned>(
                  core::ExitReason::HmovOverflow)],
              0u);
}

TEST(ServeFaults, EveryRequestIsServedFailedOrShed)
{
    for (double rate : {0.02, 0.1, 0.3}) {
        const auto cfg = faultyConfig(Scheme::HfiNative, rate);
        const auto res = ServeEngine(cfg, smallHandler()).run();
        EXPECT_EQ(res.served + res.robustness.failed + res.shed,
                  cfg.requests)
            << "rate " << rate;
        EXPECT_EQ(res.robustness.served, res.served);
    }
}

TEST(ServeFaults, RetriesRecoverMostFaultedRequests)
{
    const auto res =
        ServeEngine(faultyConfig(Scheme::HfiNative, 0.1), smallHandler())
            .run();
    EXPECT_GT(res.robustness.retries, 0u);
    // P(three faulted attempts) = rate^3 = 0.1% — with 400 requests,
    // nearly everything must come back on retry.
    EXPECT_LT(res.robustness.failed, 5u);
    EXPECT_GT(res.served, 390u);
}

TEST(ServeFaults, QuarantineAlwaysRespawnsAndPoolNeverDrains)
{
    // A hostile rate: 30% of requests fault; stalls wedge instances and
    // poisons corrupt them. The pool must quarantine and respawn without
    // ever rejecting a dispatch.
    const auto res =
        ServeEngine(faultyConfig(Scheme::HfiNative, 0.3), smallHandler())
            .run();
    EXPECT_GT(res.robustness.quarantines, 0u);
    EXPECT_GT(res.robustness.respawns, 0u);
    EXPECT_EQ(res.rejected, 0u);
    // Every quarantined slot is eventually respawned (some may still be
    // pending at shutdown, never more than the pool can hold).
    EXPECT_LE(res.robustness.respawns, res.robustness.quarantines);
}

TEST(ServeFaults, TimeoutsFireOnStalledRequests)
{
    const auto res =
        ServeEngine(faultyConfig(Scheme::Unsafe, 0.3), smallHandler()).run();
    // Stall is 1/16 of the mix at 30% over 400 requests: expect several
    // watchdog kills, each quarantining the wedged instance.
    EXPECT_GT(res.robustness.timeouts, 0u);
    EXPECT_GE(res.robustness.quarantines, res.robustness.timeouts);
}

TEST(ServeFaults, PerCoreBreakdownSumsToTotals)
{
    const auto res =
        ServeEngine(faultyConfig(Scheme::HfiNative, 0.1), smallHandler())
            .run();
    ASSERT_EQ(res.perCore.size(), 2u);
    RobustnessStats sum;
    for (const auto &core : res.perCore)
        sum.merge(core);
    expectSameRobustness(sum, res.robustness);
    EXPECT_EQ(sum.shed, res.shed);
    EXPECT_EQ(sum.served, res.served);
}

TEST(ServeFaults, ShedAccountingHasOneSourceOfTruth)
{
    // Overload a tiny bounded queue so shedding definitely happens, and
    // check the engine total equals the per-shard sum (the satellite-1
    // double-accounting fix).
    EngineConfig ec;
    ec.workers = 2;
    ec.requests = 300;
    ec.meanInterarrivalNs = 2'000.0;
    ec.queueCapacity = 4;
    ec.workStealing = false;
    ec.seed = 3;
    const auto res = ServeEngine(ec, smallHandler()).run();
    EXPECT_GT(res.shed, 0u);
    std::size_t perCore = 0;
    for (const auto &core : res.perCore)
        perCore += core.shed;
    EXPECT_EQ(perCore, res.shed);
    EXPECT_EQ(res.served + res.shed, 300u);
}

TEST(ServeFaults, FaultsRideTheSchedulerSignalPath)
{
    // With scheduler dispatch on, failed attempts return to the server
    // process via deliverFault (the §3.3.2 SIGSEGV delivery), which is
    // costlier than a plain switch; the run must still be deterministic.
    auto cfg = faultyConfig(Scheme::HfiNative, 0.2);
    cfg.worker.dispatchViaScheduler = true;
    const auto a = ServeEngine(cfg, smallHandler()).run();
    const auto b = ServeEngine(cfg, smallHandler()).run();
    EXPECT_GT(a.robustness.exits, 0u);
    EXPECT_EQ(a.durationNs, b.durationNs);
    expectSameRobustness(a.robustness, b.robustness);
}

// ---------------------------------------------------------------------
// Closed-loop seeding.

TEST(ClosedLoopSeeds, MixedModeVariesWithEngineSeed)
{
    ClosedLoopSource a(4, 16, 0.0, /*seed=*/1);
    ClosedLoopSource b(4, 16, 0.0, /*seed=*/999);
    unsigned differing = 0;
    for (unsigned i = 0; i < 16; ++i) {
        auto ra = a.next();
        auto rb = b.next();
        ASSERT_TRUE(ra && rb);
        differing += ra->seed != rb->seed;
        EXPECT_EQ(ra->seed, mixSeed(1, i));
        a.onComplete(*ra, 1.0);
        b.onComplete(*rb, 1.0);
    }
    EXPECT_GT(differing, 0u);
}

TEST(ClosedLoopSeeds, MixedModeMatchesOpenLoopConvention)
{
    // Open-loop request seeds are mixSeed(engine_seed, id); closed loop
    // must use the identical convention so a handler sees the same work
    // distribution under either source.
    VectorSource open(poissonArrivals(8, 1'000.0, /*seed=*/77, 0.0));
    ClosedLoopSource closed(8, 8, 0.0, /*seed=*/77);
    for (unsigned i = 0; i < 8; ++i) {
        auto ro = open.next();
        auto rc = closed.next();
        ASSERT_TRUE(ro && rc);
        EXPECT_EQ(ro->seed, rc->seed);
    }
}

} // namespace
