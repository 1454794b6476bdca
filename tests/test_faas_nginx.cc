/**
 * @file
 * Tests for the FaaS platform shape of Table 1 (on the serving engine)
 * and the NGINX/OpenSSL server (Fig 5 harness): latency statistics,
 * closed-loop queueing behaviour, protection-scheme cost ordering, and
 * real ciphertext.
 */

#include <gtest/gtest.h>

#include "core/checker.h"
#include "faas/latency.h"
#include "nginx/server.h"
#include "serve/engine.h"
#include "sfi/sandbox.h"
#include "swivel/swivel.h"
#include "workloads/crypto.h"

namespace
{

using namespace hfi;

// ------------------------------------------------------------ latency

TEST(LatencyRecorder, MeanAndPercentiles)
{
    faas::LatencyRecorder rec;
    for (int i = 1; i <= 100; ++i)
        rec.add(i * 1000.0);
    EXPECT_DOUBLE_EQ(rec.mean(), 50500.0);
    EXPECT_NEAR(rec.percentile(50), 50000.0, 1500.0);
    EXPECT_NEAR(rec.percentile(99), 99000.0, 1500.0);
    EXPECT_DOUBLE_EQ(rec.percentile(100), 100000.0);
    EXPECT_EQ(rec.count(), 100u);
}

TEST(LatencyRecorder, Throughput)
{
    faas::LatencyRecorder rec;
    for (int i = 0; i < 500; ++i)
        rec.add(1.0);
    EXPECT_NEAR(rec.throughput(1e9), 500.0, 0.01); // 500 reqs in 1 s
}

TEST(LatencyRecorder, EmptyIsZero)
{
    faas::LatencyRecorder rec;
    EXPECT_EQ(rec.mean(), 0.0);
    EXPECT_EQ(rec.percentile(99), 0.0);
    EXPECT_EQ(rec.throughput(1e9), 0.0);
}

// ----------------------------------------------------------- platform

/**
 * The Table 1 platform shape, scaled down: one core, closed-loop
 * clients, one warm guard-page instance run in place.
 */
class PlatformTest : public ::testing::Test
{
  protected:
    static serve::ServeResult
    run(serve::Scheme scheme, unsigned requests = 120)
    {
        serve::EngineConfig ec;
        ec.mode = serve::LoadMode::ClosedLoop;
        ec.clients = 10;
        ec.requests = requests;
        ec.worker.scheme = scheme;
        if (scheme == serve::Scheme::Swivel) {
            ec.worker.swivelEffect =
                swivel::apply(swivel::templatedHtmlProfile());
        }
        ec.worker.dispatchViaScheduler = false;
        ec.worker.quantumNs = 0;
        ec.worker.backend = sfi::BackendKind::GuardPages;
        ec.worker.sandboxOptions = {4, 64};
        ec.worker.poolSize = 1;
        return serve::ServeEngine(ec, [](sfi::Sandbox &s,
                                         std::uint32_t seed) {
                   // A small real handler.
                   for (int i = 0; i < 200; ++i)
                       s.store<std::uint32_t>(64 + (i % 64) * 4, seed + i);
                   s.chargeOps(20'000);
               }).run();
    }
};

TEST_F(PlatformTest, ClosedLoopLatencyNearClientsTimesService)
{
    const auto res = run(serve::Scheme::Unsafe);
    // Saturated single server with C clients: latency ~= C x service.
    const double service_ns = 1e9 / res.throughputRps;
    EXPECT_NEAR(res.meanLatencyNs / service_ns, 10.0, 1.5);
    EXPECT_GE(res.latency.p99, res.meanLatencyNs);
}

TEST_F(PlatformTest, HfiCostsAtMostAFewPercent)
{
    const auto unsafe_run = run(serve::Scheme::Unsafe);
    const auto hfi_run = run(serve::Scheme::HfiNative);
    const double tail_increase =
        hfi_run.latency.p99 / unsafe_run.latency.p99 - 1.0;
    // Table 1: 0%-2%.
    EXPECT_GE(tail_increase, -0.005);
    EXPECT_LE(tail_increase, 0.02);
}

TEST_F(PlatformTest, SwivelCostsMuchMore)
{
    const auto unsafe_run = run(serve::Scheme::Unsafe);
    const auto swivel_run = run(serve::Scheme::Swivel);
    const double tail_increase =
        swivel_run.latency.p99 / unsafe_run.latency.p99 - 1.0;
    // The branchy HTML profile sits at the high end of Table 1.
    EXPECT_GT(tail_increase, 0.3);
    EXPECT_GT(unsafe_run.throughputRps, swivel_run.throughputRps);
}

TEST_F(PlatformTest, SwitchOnExitCheaperThanSerialized)
{
    const auto serialized = run(serve::Scheme::HfiNative);
    const auto soe = run(serve::Scheme::HfiSwitchOnExit);
    EXPECT_LE(soe.meanLatencyNs, serialized.meanLatencyNs * 1.001);
}

TEST_F(PlatformTest, ProtectionNames)
{
    EXPECT_STREQ(serve::schemeName(serve::Scheme::Unsafe), "Lucet(Unsafe)");
    EXPECT_STREQ(serve::schemeName(serve::Scheme::HfiNative), "Lucet+HFI");
    EXPECT_STREQ(serve::schemeName(serve::Scheme::HfiSwitchOnExit),
                 "Lucet+HFI(soe)");
    EXPECT_STREQ(serve::schemeName(serve::Scheme::Swivel), "Lucet+Swivel");
}

// -------------------------------------------------------------- nginx

class NginxTest : public ::testing::Test
{
  protected:
    nginx::ServeStats
    serve(nginx::SessionProtection protection, std::uint64_t file_size,
          std::uint64_t requests = 50)
    {
        vm::VirtualClock clock;
        vm::Mmu mmu(clock);
        core::HfiContext ctx(clock);
        mpk::MpkDomainManager mpk_mgr(mmu);
        syscall::MiniKernel kernel(clock);
        nginx::NginxServer server(mmu, ctx, mpk_mgr, kernel, protection);
        server.addFile("/index.bin", file_size, 7);
        return server.serve("/index.bin", requests);
    }
};

TEST_F(NginxTest, ServesRequestsAndBytes)
{
    const auto stats = serve(nginx::SessionProtection::None, 16 * 1024);
    EXPECT_EQ(stats.requests, 50u);
    EXPECT_EQ(stats.bytesServed, 50u * 16 * 1024);
    EXPECT_GT(stats.throughputRps(), 0.0);
}

TEST_F(NginxTest, ProtectionOverheadOrdering)
{
    // Fig 5: unsafe > MPK > HFI throughput, with single-digit-percent
    // spreads.
    for (std::uint64_t size : {0ULL, 4096ULL, 65536ULL}) {
        const double none =
            serve(nginx::SessionProtection::None, size).throughputRps();
        const double mpk_rps =
            serve(nginx::SessionProtection::Mpk, size).throughputRps();
        const double hfi_rps =
            serve(nginx::SessionProtection::Hfi, size).throughputRps();
        EXPECT_GT(none, mpk_rps) << size;
        EXPECT_GT(mpk_rps, hfi_rps) << size;
        const double hfi_overhead = none / hfi_rps - 1.0;
        EXPECT_LT(hfi_overhead, 0.12) << size;
        EXPECT_GT(hfi_overhead, 0.005) << size;
    }
}

TEST_F(NginxTest, OverheadShrinksWithFileSize)
{
    // Crossings per request are roughly constant; crypto grows with
    // the payload, so relative overhead falls — Fig 5's 6.1% -> 2.9%.
    auto overhead = [&](std::uint64_t size) {
        const double none =
            serve(nginx::SessionProtection::None, size).throughputRps();
        const double hfi_rps =
            serve(nginx::SessionProtection::Hfi, size).throughputRps();
        return none / hfi_rps - 1.0;
    };
    EXPECT_GT(overhead(0), overhead(128 * 1024));
}

TEST_F(NginxTest, CiphertextIsRealAndDeterministic)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    mpk::MpkDomainManager mpk_mgr(mmu);
    syscall::MiniKernel kernel(clock);
    nginx::NginxServer a(mmu, ctx, mpk_mgr, kernel);
    a.addFile("/f", 4096, 3);
    a.serve("/f", 3);

    vm::VirtualClock clock2;
    vm::Mmu mmu2(clock2);
    core::HfiContext ctx2(clock2);
    mpk::MpkDomainManager mpk2(mmu2);
    syscall::MiniKernel kernel2(clock2);
    nginx::NginxServer b(mmu2, ctx2, mpk2, kernel2);
    b.addFile("/f", 4096, 3);
    b.serve("/f", 3);

    EXPECT_EQ(a.ciphertextChecksum(), b.ciphertextChecksum());
    EXPECT_NE(a.ciphertextChecksum(), 0xcbf29ce484222325ULL); // moved
}

TEST_F(NginxTest, HfiProtectionSealsSessionKeys)
{
    // While the crypto sandbox is active, the session-key page is the
    // only implicit data region — everything else is sealed; from
    // outside the sandbox, HFI is off. This mirrors the ERIM threat
    // model in HFI terms.
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    mpk::MpkDomainManager mpk_mgr(mmu);
    syscall::MiniKernel kernel(clock);
    nginx::NginxServer server(mmu, ctx, mpk_mgr, kernel,
                              nginx::SessionProtection::Hfi);
    server.addFile("/f", 1024, 1);
    server.serve("/f", 1);

    // After serving, HFI is disabled (we are back in the host).
    EXPECT_FALSE(ctx.enabled());
    // The key region was programmed during the serve: verify that a
    // sandboxed access to the key page would have been admitted and an
    // access elsewhere rejected.
    core::HfiRegisterFile bank = ctx.registerFile();
    bank.enabled = true;
    EXPECT_TRUE(core::AccessChecker::checkData(
                    bank, server.sessionKeyAddress(), 8, false)
                    .ok);
    EXPECT_FALSE(
        core::AccessChecker::checkData(bank, 0x12345000, 8, false).ok);
}

TEST_F(NginxTest, MpkProtectionSealsKeysOutsideDomain)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    mpk::MpkDomainManager mpk_mgr(mmu);
    syscall::MiniKernel kernel(clock);
    nginx::NginxServer server(mmu, ctx, mpk_mgr, kernel,
                              nginx::SessionProtection::Mpk);
    server.addFile("/f", 1024, 1);
    server.serve("/f", 1);
    // Outside the crypto domain (PKRU closed), the key page is sealed.
    EXPECT_FALSE(mpk_mgr.checkAccess(server.sessionKeyAddress(), false));
}

} // namespace
