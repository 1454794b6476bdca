/**
 * @file
 * Cross-validation of the threaded-dispatch interpreter against the
 * reference loop.
 *
 * FunctionalCore::run is an optimized interpreter (computed goto, index
 * tracking, fetch-check elision) and FunctionalCore::runReference is
 * the literal per-instruction loop; everything the optimized loop does
 * must be observationally identical — step counts, registers, pc, MSR,
 * sandbox state, and memory. These tests drive both over the whole
 * Fig 2 kernel suite (both protection renderings, so HFI enter/exit,
 * set_region, hmov, and the emulation's cpuid all execute) and over
 * targeted edge programs: branches to non-instruction addresses,
 * running off the program's end, step-budget exhaustion, and faults.
 *
 * The dense-fetch Program plumbing the fast loop depends on (offset
 * table, sequential hint, predecoded targets) is covered here too.
 */

#include <gtest/gtest.h>

#include "sim/functional.h"
#include "sim/kernels.h"

namespace
{

using namespace hfi;
using namespace hfi::sim;

/** Run both interpreters on identical state and compare everything. */
void
expectParity(const Program &prog,
             const std::function<void(SimMemory &)> &stage,
             std::uint64_t max_steps = 100'000'000)
{
    ArchState fast_state, ref_state;
    fast_state.pc = ref_state.pc = prog.base();
    SimMemory fast_mem, ref_mem;
    if (stage) {
        stage(fast_mem);
        stage(ref_mem);
    }

    const std::uint64_t fast_steps =
        FunctionalCore::run(prog, fast_state, fast_mem, max_steps);
    const std::uint64_t ref_steps =
        FunctionalCore::runReference(prog, ref_state, ref_mem, max_steps);

    ASSERT_EQ(fast_steps, ref_steps);
    ASSERT_EQ(fast_state.pc, ref_state.pc);
    ASSERT_EQ(static_cast<int>(fast_state.hfi.msr),
              static_cast<int>(ref_state.hfi.msr));
    ASSERT_EQ(fast_state.hfi.bank.enabled, ref_state.hfi.bank.enabled);
    for (unsigned r = 0; r < kNumRegs; ++r)
        ASSERT_EQ(fast_state.regs[r], ref_state.regs[r]) << "reg " << r;
    // Compare the heap both kernels write through (word stride covers
    // every byte; both memories were staged identically).
    for (std::uint64_t a = kernels::kHeapBase;
         a < kernels::kHeapBase + kernels::kHeapBytes; a += 8)
        ASSERT_EQ(fast_mem.read(a, 8), ref_mem.read(a, 8))
            << "heap address 0x" << std::hex << a;
}

TEST(RunParity, WholeKernelSuiteBothModes)
{
    for (const auto &kernel : kernels::suite()) {
        for (const auto mode : {kernels::Mode::HfiHardware,
                                kernels::Mode::HfiEmulation}) {
            SCOPED_TRACE(kernel.name +
                         (mode == kernels::Mode::HfiHardware ? "/hw"
                                                             : "/emu"));
            const Program prog = kernel.build(mode, 1);
            expectParity(prog, [&kernel](SimMemory &mem) {
                kernel.stage(mem, 1, 42);
            });
        }
    }
}

TEST(RunParity, StepBudgetExhaustionAgreesAtEveryCut)
{
    // Truncating the same kernel at every budget from 0 upward must
    // leave both interpreters in the same mid-flight state — this is
    // what pins the fast loop's step accounting (including the
    // uncounted bail-and-retry of slow opcodes) to the reference's.
    const auto &kernel = kernels::suite().front();
    const Program prog = kernel.build(kernels::Mode::HfiHardware, 1);
    for (std::uint64_t budget = 0; budget < 400; budget += 7) {
        SCOPED_TRACE(budget);
        expectParity(prog, [&kernel](SimMemory &mem) {
            kernel.stage(mem, 1, 42);
        }, budget);
    }
}

TEST(RunParity, BranchToNonInstructionAddressFaultsIdentically)
{
    // A jump into the middle of an instruction is an invalid-opcode
    // stop; the fast loop must leave pc at the bogus target exactly
    // like the reference loop does.
    ProgramBuilder b;
    b.movi(1, 7);
    Inst jmp;
    jmp.op = Opcode::Jmp;
    jmp.target = 0x400001; // mid-instruction
    b.emit(jmp);
    b.halt();
    expectParity(b.build(), {});
}

TEST(RunParity, CallAndRetThroughNonInstructionAddresses)
{
    // ret to a link register value outside the program.
    ProgramBuilder b;
    b.movi(kLinkReg, 0x123456);
    b.ret();
    expectParity(b.build(), {});

    // call to a valid label, ret back, then run off the end.
    ProgramBuilder c;
    c.call("fn");
    c.movi(2, 9);
    c.jmp("done");
    c.label("fn").movi(1, 5).ret();
    c.label("done").nop();
    expectParity(c.build(), {});
}

TEST(RunParity, ConditionalBranchesAndLoops)
{
    ProgramBuilder b;
    b.movi(1, 0).movi(2, 100);
    b.label("loop");
    b.addi(1, 1, 3);
    b.blt(1, 2, "loop");
    b.movi(3, 0x1000);
    b.store(1, 3, 0, 8);
    b.load(4, 3, 0, 4);
    b.halt();
    expectParity(b.build(), {});
}

TEST(RunParity, DenseFetchIndexAgreesWithAddressMap)
{
    ProgramBuilder b;
    b.movi(1, 1).addi(2, 1, 2).halt();
    const Program prog = b.build();

    // Every instruction start resolves; every other offset is kNoInst.
    std::size_t starts = 0;
    for (std::uint64_t a = prog.base(); a < prog.end(); ++a) {
        const std::size_t idx = prog.indexAt(a);
        if (idx != Program::kNoInst) {
            EXPECT_EQ(prog.addressOf(idx), a);
            ++starts;
        }
    }
    EXPECT_EQ(starts, prog.instructionCount());
    EXPECT_EQ(prog.indexAt(prog.base() - 1), Program::kNoInst);
    EXPECT_EQ(prog.indexAt(prog.end()), Program::kNoInst);

    // The hinted fetch resolves the same instruction as at() whether
    // the hint is right, wrong, or out of range.
    for (std::size_t wrong_hint : {std::size_t{0}, std::size_t{2},
                                   std::size_t{999}}) {
        std::size_t hint = wrong_hint;
        const std::size_t viaHint = prog.fetchIndex(prog.base(), &hint);
        ASSERT_NE(viaHint, Program::kNoInst);
        EXPECT_EQ(&prog.instructions()[viaHint], prog.at(prog.base()));
        EXPECT_EQ(hint, 1u); // primed for the next sequential fetch
    }
    std::size_t hint = 7;
    EXPECT_EQ(prog.fetchIndex(prog.base() + 1, &hint), Program::kNoInst);
    EXPECT_EQ(hint, 7u); // a failed fetch leaves the hint alone
}

TEST(RunParity, PredecodedBranchTargets)
{
    ProgramBuilder b;
    b.label("top").movi(1, 1);
    b.jmp("top");
    b.halt();
    const Program prog = b.build();
    // Instruction 1 is the jmp; its predecoded target is instruction 0.
    EXPECT_EQ(prog.targetIndexOf(1), 0u);
    // Non-control instructions predecode to kNoInst (target field 0).
    EXPECT_EQ(prog.targetIndexOf(0), Program::kNoInst);
}

TEST(RunParity, LabelFixupErrorNamesInstructionAndMnemonic)
{
    ProgramBuilder b;
    b.movi(1, 4);
    b.jmp("nowhere");
    try {
        b.build();
        FAIL() << "build() should have thrown";
    } catch (const std::exception &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("nowhere"), std::string::npos) << msg;
        EXPECT_NE(msg.find("instruction 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("jmp"), std::string::npos) << msg;
    }
}

} // namespace
