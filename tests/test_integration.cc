/**
 * @file
 * End-to-end integration tests that wire several subsystems together,
 * mirroring the paper's deployment stories:
 *
 *  - a browser renderer hosting multiple sandboxed libraries (§6.2),
 *  - a FaaS process multiplexing tenants with protected transitions and
 *    batched reclamation (§6.3),
 *  - OS-scheduled processes each running their own sandboxes (§3.3.3),
 *  - a native server with syscall interposition and key isolation
 *    (§6.4).
 */

#include <gtest/gtest.h>

#include "faas/latency.h"
#include "nginx/server.h"
#include "os/scheduler.h"
#include "sfi/runtime.h"
#include "syscall/interposer.h"
#include "workloads/faas_workloads.h"
#include "workloads/font.h"
#include "workloads/image.h"

namespace
{

using namespace hfi;

TEST(Integration, RendererHostsFontAndImageSandboxes)
{
    // One "renderer" process, two library sandboxes, interleaved calls.
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    sfi::RuntimeConfig config;
    config.backend = sfi::BackendKind::Hfi;
    sfi::Runtime runtime(mmu, ctx, config);

    auto font_sandbox = runtime.createSandbox({8, 512});
    auto image_sandbox = runtime.createSandbox({8, 512});
    ASSERT_TRUE(font_sandbox && image_sandbox);

    const std::string text = workloads::font::makeTestText(500, 3);
    const auto pixels = workloads::image::makeTestImage(96, 64, 9);
    const auto encoded = workloads::image::encode(
        pixels, 96, 64, workloads::image::Quality::Default);

    std::uint64_t font_sum = 0, image_sum = 0;
    for (int frame = 0; frame < 3; ++frame) {
        std::uint64_t f = 0, i = 0;
        ASSERT_TRUE(font_sandbox->invoke([&](sfi::Sandbox &s) {
            f = workloads::font::reflowSandboxed(s, text, 14, 640)
                    .checksum;
        }));
        ASSERT_TRUE(image_sandbox->invoke([&](sfi::Sandbox &s) {
            i = workloads::image::decodeSandboxed(s, encoded);
        }));
        if (frame == 0) {
            font_sum = f;
            image_sum = i;
        } else {
            // Re-rendering is deterministic and sandbox state survives.
            EXPECT_EQ(f, font_sum);
            EXPECT_EQ(i, image_sum);
        }
    }

    // The two libraries never share regions: after the image sandbox
    // runs, the font sandbox's next enter reprograms its own heap.
    EXPECT_FALSE(ctx.enabled());
    EXPECT_GT(ctx.stats().enters, 5u);
}

TEST(Integration, FaasTenantsAreIsolatedAndReclaimed)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock, 48);
    core::HfiContext ctx(clock);
    sfi::RuntimeConfig config;
    config.backend = sfi::BackendKind::Hfi;
    sfi::Runtime runtime(mmu, ctx, config);

    // Tenant A writes a "secret" into its heap; tenant B (same slot
    // reused) must not observe it through its own sandbox.
    auto tenant_a = runtime.createSandbox({1, 16});
    ASSERT_TRUE(tenant_a);
    tenant_a->invoke([](sfi::Sandbox &s) {
        s.store<std::uint64_t>(0, 0x5ec2e7);
    });

    auto tenant_b = runtime.createSandbox({1, 16});
    ASSERT_TRUE(tenant_b);
    std::uint64_t seen = 1;
    tenant_b->invoke([&](sfi::Sandbox &s) {
        seen = s.load<std::uint64_t>(0); // B's own zeroed heap
    });
    EXPECT_EQ(seen, 0u);
    // B cannot reach A's heap at all: its region covers only its base.
    const auto region = std::get<core::ExplicitDataRegion>(
        ctx.region(core::kFirstExplicitRegion));
    EXPECT_EQ(region.baseAddress, tenant_b->backend().baseAddress());

    // Serve a small burst and reclaim in a batch.
    std::vector<std::unique_ptr<sfi::Sandbox>> spent;
    std::vector<sfi::Sandbox *> raw;
    for (int i = 0; i < 16; ++i) {
        auto tenant = runtime.createSandbox({1, 16});
        ASSERT_TRUE(tenant);
        tenant->invoke([&](sfi::Sandbox &s) {
            const std::string xml = workloads::faas::makeXmlDocument(
                5, static_cast<std::uint32_t>(i));
            s.memory().writeBytes(64, xml.data(), xml.size());
            workloads::faas::xmlToJson(s, 64, xml.size());
        });
        raw.push_back(tenant.get());
        spent.push_back(std::move(tenant));
    }
    const auto calls = mmu.stats().madviseCalls;
    runtime.reclaim(raw, sfi::ReclaimPolicy::Batched, 16);
    EXPECT_EQ(mmu.stats().madviseCalls, calls + 1);
}

TEST(Integration, ScheduledProcessesKeepDistinctSandboxWorlds)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    os::Scheduler scheduler(ctx);

    const int browser = scheduler.createProcess("browser");
    const int faas = scheduler.createProcess("faas");
    (void)browser;

    // The browser process sets up a sandbox with its font heap...
    sfi::RuntimeConfig config;
    config.backend = sfi::BackendKind::Hfi;
    sfi::Runtime runtime(mmu, ctx, config);
    auto font_sandbox = runtime.createSandbox({4, 64});
    ASSERT_TRUE(font_sandbox);
    font_sandbox->enter(); // browser is mid-sandbox when preempted

    // ...and gets preempted by the FaaS process.
    scheduler.switchTo(faas);
    EXPECT_FALSE(ctx.enabled()); // the FaaS process is not sandboxed
    EXPECT_TRUE(
        std::holds_alternative<core::EmptyRegion>(
            ctx.region(core::kFirstExplicitRegion)));

    // The FaaS process runs its own multi-memory instance, and tears it
    // down before it is switched out.
    {
        auto instance = runtime.createSandbox({1, 16});
        ASSERT_TRUE(instance);
        ASSERT_TRUE(instance->addMemory(1, 16));
        instance->enter();
        instance->store<std::uint32_t>(0, 0, 42);
        instance->store<std::uint32_t>(1, 0, 43);
        EXPECT_EQ(instance->load<std::uint32_t>(0, 0), 42u);
        EXPECT_EQ(instance->load<std::uint32_t>(1, 0), 43u);
        instance->exit();
    }

    // Back to the browser: still sandboxed, its region intact.
    scheduler.switchTo(0);
    EXPECT_TRUE(ctx.enabled());
    const auto region = std::get<core::ExplicitDataRegion>(
        ctx.region(core::kFirstExplicitRegion));
    EXPECT_EQ(region.baseAddress, font_sandbox->backend().baseAddress());
    font_sandbox->exit();
}

TEST(Integration, NativeServerMediatesEverything)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    mpk::MpkDomainManager mpk_mgr(mmu);
    syscall::MiniKernel kernel(clock);

    nginx::ServerConfig config;
    config.protection = nginx::SessionProtection::Hfi;
    nginx::NginxServer server(mmu, ctx, mpk_mgr, kernel, config);
    server.addFile("/site/index.html", 8192, 5);

    const auto stats = server.serve("/site/index.html", 25);
    EXPECT_EQ(stats.requests, 25u);
    EXPECT_EQ(stats.bytesServed, 25u * 8192);

    // While serving, the crypto module entered a native sandbox per
    // call; a syscall from inside it would have been redirected.
    core::SandboxConfig native;
    native.isHybrid = false;
    native.exitHandler = 0x7000'0000;
    ctx.enter(native);
    syscall::HfiInterposer interposer(ctx, {syscall::kSysRead});
    syscall::SeccompData attempt;
    attempt.nr = syscall::kSysOpen; // not allowed for the crypto module
    EXPECT_EQ(interposer.onSyscall(attempt), syscall::Verdict::Deny);
    ctx.exit();

    // Virtual time moved (everything above was metered).
    EXPECT_GT(clock.now(), 0u);
}

TEST(Integration, WholeStackDeterminism)
{
    // Two identical universes must agree on every observable — the
    // property that makes the bench outputs reproducible.
    auto universe = [] {
        vm::VirtualClock clock;
        vm::Mmu mmu(clock);
        core::HfiContext ctx(clock);
        sfi::RuntimeConfig config;
        config.backend = sfi::BackendKind::Hfi;
        sfi::Runtime runtime(mmu, ctx, config);
        auto sandbox = runtime.createSandbox({4, 64});
        std::uint64_t sum = 0;
        sandbox->invoke([&](sfi::Sandbox &s) {
            const auto img = workloads::image::makeTestImage(64, 64, 1);
            const auto enc = workloads::image::encode(
                img, 64, 64, workloads::image::Quality::Best);
            sum = workloads::image::decodeSandboxed(s, enc);
        });
        return std::pair<std::uint64_t, std::uint64_t>(sum, clock.now());
    };
    const auto a = universe();
    const auto b = universe();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

} // namespace
