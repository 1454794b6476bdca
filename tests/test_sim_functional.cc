/**
 * @file
 * Tests for the functional executor: per-opcode semantics, HFI
 * instruction behaviour (enter/exit/set_region/syscall redirect), and
 * the fault model (no data written, retirement-only HFI effects).
 */

#include <gtest/gtest.h>

#include "sim/functional.h"

namespace
{

using namespace hfi;
using namespace hfi::sim;

/** Run a freshly built program and return the final state. */
struct RunOutcome
{
    ArchState state;
    SimMemory mem;
    std::uint64_t steps;
};

RunOutcome
runProgram(ProgramBuilder &b,
           const std::function<void(SimMemory &)> &stage = {})
{
    RunOutcome out;
    const Program prog = b.build();
    out.state.pc = prog.base();
    if (stage)
        stage(out.mem);
    out.steps = FunctionalCore::run(prog, out.state, out.mem);
    return out;
}

TEST(Functional, AluOps)
{
    ProgramBuilder b;
    b.movi(1, 20).movi(2, 12);
    b.add(3, 1, 2);
    b.sub(4, 1, 2);
    b.mul(5, 1, 2);
    b.xor_(6, 1, 2);
    b.shli(7, 2, 4);
    b.shri(8, 1, 2);
    b.andi(9, 1, 0xf);
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.regs[3], 32u);
    EXPECT_EQ(out.state.regs[4], 8u);
    EXPECT_EQ(out.state.regs[5], 240u);
    EXPECT_EQ(out.state.regs[6], 20u ^ 12u);
    EXPECT_EQ(out.state.regs[7], 12u << 4);
    EXPECT_EQ(out.state.regs[8], 5u);
    EXPECT_EQ(out.state.regs[9], 4u);
}

TEST(Functional, DivByZeroYieldsZero)
{
    ProgramBuilder b;
    b.movi(1, 10).movi(2, 0);
    Inst div;
    div.op = Opcode::Div;
    div.rd = 3;
    div.ra = 1;
    div.rb = 2;
    b.emit(div);
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.regs[3], 0u);
}

TEST(Functional, LoadStoreWidths)
{
    ProgramBuilder b;
    b.movi(1, 0x5000);
    b.movi(2, static_cast<std::int64_t>(0x1122334455667788ULL));
    b.store(2, 1, 0, 8);
    b.load(3, 1, 0, 4);
    b.load(4, 1, 0, 2);
    b.load(5, 1, 0, 1);
    b.load(6, 1, 4, 4);
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.regs[3], 0x55667788u);
    EXPECT_EQ(out.state.regs[4], 0x7788u);
    EXPECT_EQ(out.state.regs[5], 0x88u);
    EXPECT_EQ(out.state.regs[6], 0x11223344u);
}

TEST(Functional, IndexedAddressing)
{
    ProgramBuilder b;
    b.movi(1, 0x6000).movi(2, 3);
    b.movi(3, 0xaa);
    // mem[0x6000 + 3*8 + 4] = 0xaa
    Inst st;
    st.op = Opcode::Store;
    st.rd = 3;
    st.ra = 1;
    st.rb = 2;
    st.useIndex = true;
    st.scale = 8;
    st.imm = 4;
    st.width = 1;
    b.emit(st);
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.mem.readByte(0x6000 + 24 + 4), 0xaau);
}

TEST(Functional, BranchesAndLoops)
{
    ProgramBuilder b;
    b.movi(1, 0).movi(2, 10).movi(3, 0);
    b.label("loop");
    b.add(3, 3, 1);
    b.addi(1, 1, 1);
    b.blt(1, 2, "loop");
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.regs[3], 45u);
}

TEST(Functional, SignedBranchComparison)
{
    ProgramBuilder b;
    b.movi(1, -5).movi(2, 3).movi(4, 0);
    b.blt(1, 2, "neg_less"); // -5 < 3 signed
    b.halt();
    b.label("neg_less");
    b.movi(4, 1);
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.regs[4], 1u);
}

TEST(Functional, CallRetUseLinkRegister)
{
    ProgramBuilder b;
    b.movi(1, 0);
    b.call("fn");
    b.addi(1, 1, 100); // after return
    b.halt();
    b.label("fn");
    b.addi(1, 1, 1);
    b.ret();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.regs[1], 101u);
}

TEST(Functional, HfiEnterEnablesChecking)
{
    ProgramBuilder b;
    // Code region first, else the next fetch faults.
    b.movi(11, 0x400000).movi(12, 0xffff);
    b.hfiSetRegion(0, 11, 12, 4);
    b.movi(kExitHandlerReg, 0);
    b.hfiEnter(true, false);
    // No data regions: this load must fault.
    b.movi(1, 0x5000);
    b.load(2, 1, 0, 8);
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.hfi.msr, core::ExitReason::DataBoundsViolation);
    EXPECT_FALSE(out.state.hfi.bank.enabled); // disabled at the trap
    EXPECT_EQ(out.state.regs[2], 0u);    // no data propagated
}

TEST(Functional, CodeRegionGatesFetch)
{
    ProgramBuilder b;
    b.movi(11, 0x400000).movi(12, 0x3); // 4-byte code region: too small
    b.hfiSetRegion(0, 11, 12, 4);
    b.movi(kExitHandlerReg, 0);
    b.hfiEnter(true, false);
    b.nop(); // fetching this faults: it is outside the 4-byte region
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.hfi.msr, core::ExitReason::CodeBoundsViolation);
}

TEST(Functional, HmovChecksBounds)
{
    ProgramBuilder b;
    b.movi(11, 0x400000).movi(12, 0xffff);
    b.hfiSetRegion(0, 11, 12, 4);
    b.movi(11, 0x100000).movi(12, 1 << 16);
    b.hfiSetRegion(core::kFirstExplicitRegion, 11, 12, 1 | 2 | 8);
    b.movi(kExitHandlerReg, 0);
    b.hfiEnter(true, false);
    b.movi(1, 64);
    b.movi(2, 0x77);
    b.hmovStore(0, 2, 1, 1, 0, 1); // in bounds
    b.movi(1, 1 << 16);
    b.hmovLoad(0, 3, 1, 1, 0, 1); // out of bounds: trap
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.mem.readByte(0x100000 + 64), 0x77u);
    EXPECT_EQ(out.state.hfi.msr, core::ExitReason::HmovBoundsViolation);
}

TEST(Functional, HmovOutsideHfiModeFaults)
{
    ProgramBuilder b;
    b.movi(1, 0);
    b.hmovLoad(0, 2, 1, 1, 0, 8);
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.hfi.msr, core::ExitReason::HardwareFault);
}

TEST(Functional, SyscallRedirectsInNativeSandbox)
{
    ProgramBuilder b;
    b.movi(11, 0x400000).movi(12, 0xffff);
    b.hfiSetRegion(0, 11, 12, 4);
    // The handler label's address goes into the exit-handler register.
    b.movi(kExitHandlerReg, 0); // patched below via two-pass trick
    b.hfiEnter(false, false);   // native
    b.syscall(1);               // must redirect, not execute
    b.movi(1, 111);             // skipped
    b.halt();
    b.label("handler");
    b.movi(1, 222);
    b.halt();
    // Resolve the handler address: build once to find it, then rebuild
    // with the right immediate.
    Program probe = b.build();
    const std::uint64_t handler_addr = probe.addressOf(8);

    ProgramBuilder real;
    real.movi(11, 0x400000).movi(12, 0xffff);
    real.hfiSetRegion(0, 11, 12, 4);
    real.movi(kExitHandlerReg, static_cast<std::int64_t>(handler_addr));
    real.hfiEnter(false, false);
    real.syscall(1);
    real.movi(1, 111);
    real.halt();
    real.label("handler");
    real.movi(1, 222);
    real.halt();
    auto out = runProgram(real);
    EXPECT_EQ(out.state.regs[1], 222u);
    EXPECT_EQ(out.state.hfi.msr, core::ExitReason::Syscall);
    EXPECT_FALSE(out.state.hfi.bank.enabled);
}

TEST(Functional, SyscallExitGroupHalts)
{
    ProgramBuilder b;
    b.movi(1, 42);
    b.syscall(231);
    b.movi(1, 99); // unreachable
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.regs[1], 42u);
}

TEST(Functional, RegionUpdateLockedInNativeSandbox)
{
    ProgramBuilder b;
    b.movi(11, 0x400000).movi(12, 0xffff);
    b.hfiSetRegion(0, 11, 12, 4);
    b.movi(kExitHandlerReg, 0);
    b.hfiEnter(false, false); // native: registers locked
    b.movi(11, 0x100000).movi(12, 1 << 16);
    b.hfiSetRegion(core::kFirstExplicitRegion, 11, 12, 3);
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.hfi.msr, core::ExitReason::IllegalRegionUpdate);
}

TEST(Functional, HfiExitDisables)
{
    ProgramBuilder b;
    b.movi(11, 0x400000).movi(12, 0xffff);
    b.hfiSetRegion(0, 11, 12, 4);
    b.movi(kExitHandlerReg, 0);
    b.hfiEnter(true, false);
    b.hfiExit();
    // After exit, arbitrary loads are unchecked again.
    b.movi(1, 0x9000);
    b.load(2, 1, 0, 8);
    b.halt();
    auto out = runProgram(b);
    EXPECT_EQ(out.state.hfi.msr, core::ExitReason::HfiExit);
    EXPECT_FALSE(out.state.hfi.bank.enabled);
    EXPECT_EQ(out.steps, 9u);
}

TEST(Functional, FlushComputesAddressOnly)
{
    ProgramBuilder b;
    b.movi(1, 0x7000);
    b.flush(1, 0x40);
    b.halt();
    const Program prog = b.build();
    ArchState state;
    state.pc = prog.base();
    SimMemory mem;
    DirectMem view{mem};
    const Inst *flush_inst = prog.at(prog.addressOf(1));
    ArchState flush_state = state;
    flush_state.regs[1] = 0x7000;
    const ExecInfo info = FunctionalCore::executeOn(
        *flush_inst, prog.addressOf(1), flush_state, view);
    EXPECT_TRUE(info.isFlush);
    EXPECT_EQ(info.memAddr, 0x7040u);
    EXPECT_FALSE(info.isMem);
}

TEST(Functional, RunStopsAtMaxSteps)
{
    ProgramBuilder b;
    b.label("spin");
    b.jmp("spin");
    const Program prog = b.build();
    ArchState state;
    state.pc = prog.base();
    SimMemory mem;
    EXPECT_EQ(FunctionalCore::run(prog, state, mem, 1000), 1000u);
}

TEST(Functional, RunningOffProgramStops)
{
    ProgramBuilder b;
    b.movi(1, 1); // no halt
    const Program prog = b.build();
    ArchState state;
    state.pc = prog.base();
    SimMemory mem;
    EXPECT_EQ(FunctionalCore::run(prog, state, mem), 1u);
}

} // namespace
