/**
 * @file
 * Cross-validation of the event-driven pipeline loop against the
 * reference loop.
 *
 * Pipeline::run skips provably idle cycles by advancing the clock to
 * the next event; Pipeline::runReference ticks every cycle through the
 * same stage functions. The two must be cycle-for-cycle identical —
 * not just in the final cycle count, but in every microarchitectural
 * event counter (fetch/dispatch/commit/squash/mispredict totals, cache
 * and dtb hit/miss counts) and in the architectural outcome (registers,
 * memory). These tests drive both loops over the whole Fig 2 kernel
 * suite in both protection renderings, over truncated runs cut at many
 * max_cycles budgets (pinning the skip logic's interaction with the
 * cycle limit), and over fault paths.
 */

#include <gtest/gtest.h>

#include "sim/kernels.h"
#include "sim/pipeline.h"

namespace
{

using namespace hfi;
using namespace hfi::sim;

/** Run both loops on identical inputs and compare everything. */
void
expectPipelineParity(const Program &prog,
                     void (*stage)(SimMemory &, std::uint64_t,
                                   std::uint32_t),
                     std::uint64_t max_cycles = 500'000'000)
{
    Pipeline fast(prog);
    Pipeline ref(prog);
    if (stage) {
        stage(fast.memory(), 1, 42);
        stage(ref.memory(), 1, 42);
    }

    const PipelineResult fr = fast.run(max_cycles);
    const PipelineResult rr = ref.runReference(max_cycles);

    ASSERT_EQ(fr.cycles, rr.cycles);
    ASSERT_EQ(fr.instructions, rr.instructions);
    ASSERT_EQ(fr.halted, rr.halted);
    ASSERT_EQ(fr.faulted, rr.faulted);
    ASSERT_EQ(static_cast<int>(fr.faultReason),
              static_cast<int>(rr.faultReason));
    ASSERT_EQ(fr.faultPc, rr.faultPc);

    const PipelineStats &fs = fast.stats();
    const PipelineStats &rs = ref.stats();
    ASSERT_EQ(fs.fetched, rs.fetched);
    ASSERT_EQ(fs.dispatched, rs.dispatched);
    ASSERT_EQ(fs.committed, rs.committed);
    ASSERT_EQ(fs.squashed, rs.squashed);
    ASSERT_EQ(fs.mispredicts, rs.mispredicts);
    ASSERT_EQ(fs.serializations, rs.serializations);
    ASSERT_EQ(fs.hfiDataChecks, rs.hfiDataChecks);
    ASSERT_EQ(fs.hfiFaultsSuppressed, rs.hfiFaultsSuppressed);

    // A skipped cycle must not have hidden a cache or dtb access.
    ASSERT_EQ(fast.icache().hits(), ref.icache().hits());
    ASSERT_EQ(fast.icache().misses(), ref.icache().misses());
    ASSERT_EQ(fast.dcache().hits(), ref.dcache().hits());
    ASSERT_EQ(fast.dcache().misses(), ref.dcache().misses());
    ASSERT_EQ(fast.dtb().hits(), ref.dtb().hits());
    ASSERT_EQ(fast.dtb().misses(), ref.dtb().misses());

    for (unsigned r = 0; r < kNumRegs; ++r)
        ASSERT_EQ(fast.state().regs[r], ref.state().regs[r])
            << "reg " << r;
    for (std::uint64_t a = kernels::kHeapBase;
         a < kernels::kHeapBase + kernels::kHeapBytes; a += 8)
        ASSERT_EQ(fast.memory().read(a, 8), ref.memory().read(a, 8))
            << "heap address 0x" << std::hex << a;
}

TEST(PipelineParity, WholeKernelSuiteBothModes)
{
    for (const auto &kernel : kernels::suite()) {
        for (const auto mode : {kernels::Mode::HfiHardware,
                                kernels::Mode::HfiEmulation}) {
            SCOPED_TRACE(kernel.name +
                         (mode == kernels::Mode::HfiHardware ? "/hw"
                                                             : "/emu"));
            expectPipelineParity(kernel.build(mode, 1), kernel.stage);
        }
    }
}

TEST(PipelineParity, CycleBudgetCutsAgree)
{
    // Truncation must land both loops on the same cycle: the
    // event-driven skip clamps its jumps to max_cycles rather than
    // sailing past the limit the reference loop stops at.
    const auto &kernel = kernels::suite().front();
    const Program prog = kernel.build(kernels::Mode::HfiHardware, 1);
    for (std::uint64_t budget = 0; budget < 3000; budget += 97) {
        SCOPED_TRACE(budget);
        expectPipelineParity(prog, kernel.stage, budget);
    }
}

TEST(PipelineParity, FaultingProgramAgrees)
{
    // An out-of-region access faults at commit; the loops must agree
    // on the fault cycle, reason, and pc.
    ProgramBuilder b;
    b.movi(1, 0x1234);
    Inst enter;
    enter.op = Opcode::HfiEnter;
    enter.imm = 2; // serialized
    b.emit(enter);
    b.movi(2, 0x7fff0000); // no region covers this
    b.load(3, 2, 0, 8);
    b.halt();
    expectPipelineParity(b.build(), nullptr);
}

TEST(PipelineParity, RepeatedRunsAccumulate)
{
    // run() may be called again after a cycle-budget cut; the resumed
    // run must stay identical to a resumed reference run.
    const auto &kernel = kernels::suite().front();
    const Program prog = kernel.build(kernels::Mode::HfiHardware, 1);
    Pipeline fast(prog);
    Pipeline ref(prog);
    kernel.stage(fast.memory(), 1, 42);
    kernel.stage(ref.memory(), 1, 42);

    PipelineResult fr, rr;
    for (int leg = 0; leg < 3; ++leg) {
        fr = fast.run(4000 * (leg + 1));
        rr = ref.runReference(4000 * (leg + 1));
        ASSERT_EQ(fr.cycles, rr.cycles) << "leg " << leg;
        ASSERT_EQ(fr.instructions, rr.instructions) << "leg " << leg;
    }
    ASSERT_EQ(fr.halted, rr.halted);
}

} // namespace
