/**
 * @file
 * Smoke test for the umbrella header: `#include "hfi.h"` must expose
 * the whole public surface and stay internally consistent.
 */

#include <gtest/gtest.h>

#include "hfi.h"

namespace
{

TEST(Umbrella, CoreSurfaceReachable)
{
    hfi::vm::VirtualClock clock;
    hfi::core::HfiContext ctx(clock);
    EXPECT_FALSE(ctx.enabled());
    EXPECT_EQ(hfi::core::kNumRegions, 10u);
}

TEST(Umbrella, RuntimeSurfaceReachable)
{
    hfi::vm::VirtualClock clock;
    hfi::vm::Mmu mmu(clock);
    hfi::core::HfiContext ctx(clock);
    hfi::sfi::Sandbox sandbox(mmu, ctx, hfi::sfi::BackendKind::GuardPages,
                              {1, 4});
    ASSERT_TRUE(sandbox.valid());
    sandbox.store<std::uint32_t>(0, 7);
    EXPECT_EQ(sandbox.load<std::uint32_t>(0), 7u);
}

TEST(Umbrella, SimSurfaceReachable)
{
    hfi::sim::ProgramBuilder builder;
    builder.movi(1, 41).addi(1, 1, 1).halt();
    hfi::sim::Pipeline pipe(builder.build());
    const auto res = pipe.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(pipe.state().regs[1], 42u);
}

} // namespace
