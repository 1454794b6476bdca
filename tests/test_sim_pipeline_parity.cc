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
 * cycle limit), and over fault paths. A cut run must also leave state()
 * at its committed prefix, and resume to exactly the uncut run.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "sim/kernels.h"
#include "sim/pipeline.h"

namespace
{

using namespace hfi;
using namespace hfi::sim;

using Stage = void (*)(SimMemory &, std::uint64_t, std::uint32_t);
using Loop = PipelineResult (Pipeline::*)(std::uint64_t);

void
expectSameHeap(const SimMemory &a, const SimMemory &b)
{
    for (std::uint64_t addr = kernels::kHeapBase;
         addr < kernels::kHeapBase + kernels::kHeapBytes; addr += 8)
        ASSERT_EQ(a.read(addr, 8), b.read(addr, 8))
            << "heap address 0x" << std::hex << addr;
}

/**
 * The committed-prefix oracle: after a run cut at a cycle budget,
 * state() and memory equal the functional core's, stopped at the
 * pipeline's committed count.
 */
void
expectCommittedPrefix(Pipeline &pipe, const Program &prog, Stage stage)
{
    const std::uint64_t committed = pipe.stats().committed;
    SimMemory mem;
    if (stage)
        stage(mem, 1, 42);
    ArchState ref;
    ref.pc = prog.base();
    ASSERT_EQ(FunctionalCore::run(prog, ref, mem, committed), committed);
    EXPECT_EQ(pipe.state().regs, ref.regs);
    EXPECT_EQ(pipe.state().pc, ref.pc);
    EXPECT_TRUE(pipe.state().hfi == ref.hfi);
    expectSameHeap(pipe.memory(), mem);
}

/** Two runs of one program agree on everything the model exposes. */
void
expectSameRun(Pipeline &a, const PipelineResult &ar, Pipeline &b,
              const PipelineResult &br)
{
    ASSERT_EQ(ar.cycles, br.cycles);
    ASSERT_EQ(ar.instructions, br.instructions);
    ASSERT_EQ(ar.halted, br.halted);
    ASSERT_EQ(ar.faulted, br.faulted);
    ASSERT_EQ(static_cast<int>(ar.faultReason),
              static_cast<int>(br.faultReason));
    ASSERT_EQ(ar.faultPc, br.faultPc);

    const PipelineStats &as = a.stats();
    const PipelineStats &bs = b.stats();
    ASSERT_EQ(as.fetched, bs.fetched);
    ASSERT_EQ(as.dispatched, bs.dispatched);
    ASSERT_EQ(as.committed, bs.committed);
    ASSERT_EQ(as.squashed, bs.squashed);
    ASSERT_EQ(as.mispredicts, bs.mispredicts);
    ASSERT_EQ(as.serializations, bs.serializations);
    ASSERT_EQ(as.hfiDataChecks, bs.hfiDataChecks);
    ASSERT_EQ(as.hfiFaultsSuppressed, bs.hfiFaultsSuppressed);

    // A skipped cycle must not have hidden a cache or dtb access.
    ASSERT_EQ(a.icache().hits(), b.icache().hits());
    ASSERT_EQ(a.icache().misses(), b.icache().misses());
    ASSERT_EQ(a.dcache().hits(), b.dcache().hits());
    ASSERT_EQ(a.dcache().misses(), b.dcache().misses());
    ASSERT_EQ(a.dtb().hits(), b.dtb().hits());
    ASSERT_EQ(a.dtb().misses(), b.dtb().misses());

    for (unsigned r = 0; r < kNumRegs; ++r)
        ASSERT_EQ(a.state().regs[r], b.state().regs[r]) << "reg " << r;
    ASSERT_EQ(a.state().pc, b.state().pc);
    ASSERT_TRUE(a.state().hfi == b.state().hfi);
    expectSameHeap(a.memory(), b.memory());
}

/** Run both loops on identical inputs and compare everything. */
void
expectPipelineParity(const Program &prog, Stage stage,
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
    expectSameRun(fast, fr, ref, rr);
    if (!fr.halted && !fr.faulted)
        expectCommittedPrefix(fast, prog, stage);
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
    // sailing past the limit the reference loop stops at. Each cut
    // leaves the committed prefix.
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

/**
 * Over the whole kernel suite in both modes: a run of @p loop cut at
 * each of @p budgets leaves the committed prefix, and resuming it is
 * indistinguishable from one uncut run.
 */
void
expectResumeEqualsUncut(Loop loop, std::initializer_list<std::uint64_t> budgets)
{
    for (const auto &kernel : kernels::suite()) {
        for (const auto mode : {kernels::Mode::HfiHardware,
                                kernels::Mode::HfiEmulation}) {
            const Program prog = kernel.build(mode, 1);
            Pipeline whole(prog);
            kernel.stage(whole.memory(), 1, 42);
            const PipelineResult want = (whole.*loop)(500'000'000);
            for (const std::uint64_t budget : budgets) {
                SCOPED_TRACE(kernel.name +
                             (mode == kernels::Mode::HfiHardware ? "/hw"
                                                                 : "/emu") +
                             " cut at " + std::to_string(budget));
                Pipeline pipe(prog);
                kernel.stage(pipe.memory(), 1, 42);
                const PipelineResult cut = (pipe.*loop)(budget);
                if (!cut.halted && !cut.faulted)
                    expectCommittedPrefix(pipe, prog, kernel.stage);
                const PipelineResult got = (pipe.*loop)(500'000'000);
                expectSameRun(pipe, got, whole, want);
            }
        }
    }
}

// The two loops split the cut budgets between them to keep each test
// short; the parity tests above tie the loops to each other.
TEST(PipelineParity, ResumeEqualsUncut)
{
    expectResumeEqualsUncut(&Pipeline::run, {1000, 10007});
}

TEST(PipelineParity, ResumeEqualsUncutReference)
{
    expectResumeEqualsUncut(&Pipeline::runReference, {3331, 50021});
}

} // namespace
