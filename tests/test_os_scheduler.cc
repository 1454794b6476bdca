/**
 * @file
 * Tests for the §3.3.3 OS support: HFI register state is per-process
 * under xsave/xrstor context switching, sandboxed processes resume
 * sandboxed, and no region state leaks between processes.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/checker.h"
#include "os/scheduler.h"

namespace
{

using namespace hfi;
using namespace hfi::os;

class SchedulerTest : public ::testing::Test
{
  protected:
    core::ImplicitDataRegion
    region(std::uint64_t base)
    {
        core::ImplicitDataRegion r;
        r.basePrefix = base;
        r.lsbMask = 0xfff;
        r.permRead = true;
        r.permWrite = true;
        return r;
    }

    vm::VirtualClock clock;
    core::HfiContext ctx{clock};
    Scheduler sched{ctx};
};

TEST_F(SchedulerTest, FirstProcessBecomesCurrent)
{
    EXPECT_EQ(sched.createProcess("init"), 0);
    EXPECT_EQ(sched.currentPid(), 0);
    EXPECT_EQ(sched.createProcess("worker"), 1);
    EXPECT_EQ(sched.currentPid(), 0);
}

TEST_F(SchedulerTest, RegionStateIsPerProcess)
{
    const int a = sched.createProcess("a");
    const int b = sched.createProcess("b");

    // Process a programs a region over 0x1000.
    ctx.setRegion(2, core::Region{region(0x1000)});

    // Switch to b: b must see a clean register file.
    ASSERT_TRUE(sched.switchTo(b));
    EXPECT_TRUE(std::holds_alternative<core::EmptyRegion>(ctx.region(2)));

    // b programs its own region over 0x2000.
    ctx.setRegion(2, core::Region{region(0x2000)});

    // Back to a: a's region is restored, b's is invisible.
    ASSERT_TRUE(sched.switchTo(a));
    ASSERT_TRUE(
        std::holds_alternative<core::ImplicitDataRegion>(ctx.region(2)));
    EXPECT_EQ(std::get<core::ImplicitDataRegion>(ctx.region(2)).basePrefix,
              0x1000u);
}

TEST_F(SchedulerTest, SandboxedProcessResumesSandboxed)
{
    const int a = sched.createProcess("sandboxed");
    const int b = sched.createProcess("plain");

    // a is preempted while inside a sandbox.
    ctx.setRegion(2, core::Region{region(0x1000)});
    core::SandboxConfig cfg;
    cfg.isHybrid = true;
    ctx.enter(cfg);
    ASSERT_TRUE(ctx.enabled());

    sched.switchTo(b);
    EXPECT_FALSE(ctx.enabled()); // b never entered a sandbox

    sched.switchTo(a);
    EXPECT_TRUE(ctx.enabled()); // a resumes mid-sandbox
    EXPECT_TRUE(core::AccessChecker::checkData(ctx, 0x1800, 4, false).ok);
    EXPECT_FALSE(core::AccessChecker::checkData(ctx, 0x2800, 4, false).ok);
}

TEST_F(SchedulerTest, EnforcementFollowsTheProcess)
{
    const int a = sched.createProcess("a");
    const int b = sched.createProcess("b");
    (void)a;

    ctx.setRegion(2, core::Region{region(0x1000)});
    ctx.enter(core::SandboxConfig{.isHybrid = true});

    sched.switchTo(b);
    ctx.setRegion(2, core::Region{region(0x2000)});
    ctx.enter(core::SandboxConfig{.isHybrid = true});

    // b's sandbox can reach 0x2000 but not a's 0x1000.
    EXPECT_TRUE(core::AccessChecker::checkData(ctx, 0x2010, 4, true).ok);
    EXPECT_FALSE(core::AccessChecker::checkData(ctx, 0x1010, 4, true).ok);
}

TEST_F(SchedulerTest, YieldRoundRobins)
{
    sched.createProcess("p0");
    sched.createProcess("p1");
    sched.createProcess("p2");
    EXPECT_EQ(sched.yield(), 1);
    EXPECT_EQ(sched.yield(), 2);
    EXPECT_EQ(sched.yield(), 0);
    EXPECT_EQ(sched.process(1).switchIns, 1u);
}

TEST_F(SchedulerTest, SwitchChargesKernelAndXsaveCosts)
{
    // Every switch, whichever way it is reached and whatever state the
    // outgoing process is in, charges the kernel's flat switch time plus
    // one xsave and one xrstor of the HFI register file: the
    // save-hfi-regs flag is never skipped.
    const vm::Cycles per_switch =
        clock.nsToCycles(kSchedulerCosts.contextSwitchNs) +
        core::kHfiCosts.xsaveHfiCycles + core::kHfiCosts.xrstorHfiCycles;
    const int a = sched.createProcess("a");
    const int b = sched.createProcess("b");
    sched.createProcess("c");

    auto t0 = clock.now();
    ASSERT_TRUE(sched.switchTo(b));
    EXPECT_EQ(clock.now() - t0, per_switch);

    // Preempted inside a native sandbox, b's registers are still saved.
    core::SandboxConfig cfg;
    cfg.isHybrid = false;
    ctx.enter(cfg);
    t0 = clock.now();
    EXPECT_EQ(sched.yield(), 2);
    EXPECT_EQ(clock.now() - t0, per_switch);

    t0 = clock.now();
    ASSERT_TRUE(sched.switchTo(sched.currentPid()));
    EXPECT_EQ(clock.now() - t0, per_switch);

    t0 = clock.now();
    ASSERT_TRUE(sched.deliverFault(a));
    EXPECT_EQ(clock.now() - t0,
              clock.nsToCycles(kSchedulerCosts.signalDeliveryNs) +
                  per_switch);
    EXPECT_EQ(sched.totalSwitches(), 4u);
}

TEST_F(SchedulerTest, NativeSandboxStateSurvivesSwitchRoundTrip)
{
    // The serving engine's preemption path: a process is switched out
    // while inside a *native* (non-hybrid) sandbox. The user-mode
    // xrstor traps in that state (§3.3.3) — the kernel's ring-0 restore
    // must not, or the incoming process inherits the outgoing one's
    // region file.
    const int a = sched.createProcess("tenant");
    const int b = sched.createProcess("server");

    ctx.setRegion(2, core::Region{region(0x1000)});
    core::SandboxConfig cfg;
    cfg.isHybrid = false;
    cfg.isSerialized = true;
    cfg.exitHandler = 0x7000'0000;
    ctx.enter(cfg);
    ASSERT_TRUE(ctx.enabled());

    // Switch away: the other process sees a clean, usable context.
    ASSERT_TRUE(sched.switchTo(b));
    EXPECT_FALSE(ctx.enabled());
    EXPECT_EQ(ctx.setRegion(3, core::Region{region(0x9000)}),
              core::HfiResult::Ok);

    // Switch back: the tenant resumes mid-native-sandbox with its
    // region lock intact — setRegion still traps, enforcement still
    // follows the restored region file.
    ASSERT_TRUE(sched.switchTo(a));
    EXPECT_TRUE(ctx.enabled());
    EXPECT_FALSE(ctx.config().isHybrid);
    EXPECT_EQ(ctx.setRegion(2, core::Region{region(0x5000)}),
              core::HfiResult::Trap);
    EXPECT_TRUE(core::AccessChecker::checkData(ctx, 0x1800, 4, false).ok);
    EXPECT_FALSE(core::AccessChecker::checkData(ctx, 0x9800, 4, false).ok);
}

TEST_F(SchedulerTest, SwitchChargesExactXsaveXrstorCosts)
{
    // The save/restore cost from core/cost_model.h is charged on every
    // switch: the flat kernel context-switch time plus one xsave and
    // one xrstor of the HFI register file.
    sched.createProcess("a");
    const int b = sched.createProcess("b");
    const auto t0 = clock.now();
    sched.switchTo(b);
    EXPECT_EQ(clock.now() - t0,
              clock.nsToCycles(kSchedulerCosts.contextSwitchNs) +
                  core::kHfiCosts.xsaveHfiCycles +
                  core::kHfiCosts.xrstorHfiCycles);
}

TEST_F(SchedulerTest, SwitchCountIsTracked)
{
    sched.createProcess("a");
    const int b = sched.createProcess("b");
    EXPECT_EQ(sched.totalSwitches(), 0u);
    sched.switchTo(b);
    sched.yield();
    EXPECT_EQ(sched.totalSwitches(), 2u);
}

TEST_F(SchedulerTest, UnknownPidRejected)
{
    sched.createProcess("only");
    EXPECT_FALSE(sched.switchTo(7));
    EXPECT_FALSE(sched.switchTo(-1));
}

TEST_F(SchedulerTest, ManyProcessesNoOnChipStateGrowth)
{
    // §3/§4: HFI keeps constant on-chip state regardless of sandbox
    // count — the per-process state lives in the kernel's xsave areas.
    // Create many processes, each with a distinct region, and verify
    // every one round-trips.
    std::vector<int> pids;
    for (int i = 0; i < 64; ++i) {
        std::string name = "p";
        name += std::to_string(i);
        pids.push_back(sched.createProcess(name));
    }
    for (int pid : pids) {
        sched.switchTo(pid);
        ctx.setRegion(2, core::Region{region(0x10000ULL * (pid + 1))});
    }
    for (int pid : pids) {
        sched.switchTo(pid);
        ASSERT_TRUE(std::holds_alternative<core::ImplicitDataRegion>(
            ctx.region(2)));
        EXPECT_EQ(
            std::get<core::ImplicitDataRegion>(ctx.region(2)).basePrefix,
            0x10000ULL * (pid + 1));
    }
}

} // namespace
