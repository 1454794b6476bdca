/**
 * @file
 * One HFI architectural model: the runtime-facing HfiContext and the
 * simulator's functional core must apply the same hfi_* rules.
 *
 * The cross-model test runs every hfi_* operation from every
 * {enabled, hybrid, serialized, switch-on-exit, shadow-valid, handler}
 * state through both HfiContext and FunctionalCore::executeOn, delivers
 * any trap the way each model retires it, and requires the same banks,
 * shadow-valid bit, MSR, trap reason, handler and serialize verdict.
 * Also here: the region-register encode/decode round trip and a native
 * hfi_exit reaching its handler on all three simulator loops.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/context.h"
#include "sim/functional.h"
#include "sim/pipeline.h"

namespace
{

using namespace hfi;
using namespace hfi::core;
using sim::ArchState;
using sim::Inst;
using sim::Opcode;

constexpr std::uint64_t kPc = 0x400000;
constexpr VAddr kStateHandler = 0x7000'0000;
constexpr VAddr kEnterHandler = 0x5000'0000;
constexpr unsigned kBaseReg = 11;
constexpr unsigned kBoundReg = 12;

/** What one operation did, as the test observes it in either model. */
struct Observed
{
    HfiState state;
    ExitReason trap = ExitReason::None;
    VAddr handler = 0;
    bool serializes = false;
};

/** A descriptor hfi_set_region reads: (base, bound/mask, permissions). */
struct Descriptor
{
    const char *name;
    std::uint64_t base;
    std::uint64_t bound;
    std::int64_t perms;
};

/** A well-formed and an ill-formed value of each region class. */
const Descriptor kDescriptors[] = {
    {"code", 0x400000, 0xffff, 4},
    {"code-misaligned", 0x400001, 0xffff, 4},
    {"data", 0x10000, 0xffff, 3},
    {"data-bad-mask", 0x10000, 0xfffe, 3},
    {"explicit-large", 0x100000, 1 << 16, 1 | 2 | 8},
    {"explicit-spans-4g", 0xffff'ff00, 0x200, 3},
};

/** One hfi_* operation, rendered for both models. */
struct Operation
{
    std::string name;
    Inst inst;
    std::uint64_t base = 0;  ///< descriptor base register value
    std::uint64_t bound = 0; ///< descriptor bound register value
    /** The same operation through HfiContext; fills trap and handler. */
    std::function<void(HfiContext &, Observed &)> onContext;
};

Inst
makeInst(Opcode op, std::int64_t imm = 0, unsigned region = 0)
{
    Inst inst;
    inst.op = op;
    inst.imm = imm;
    inst.region = static_cast<std::uint8_t>(region);
    inst.ra = kBaseReg;
    inst.rb = kBoundReg;
    inst.useImm = op == Opcode::Syscall;
    inst.length = sim::defaultLength(inst);
    return inst;
}

/** HfiContext reports a region-update trap; the runtime delivers it. */
void
deliverIfTrapped(HfiContext &ctx, HfiResult result, Observed &seen)
{
    if (result != HfiResult::Trap)
        return;
    seen.trap = ctx.exitReason();
    ctx.onFault(seen.trap);
}

std::vector<Operation>
allOperations()
{
    std::vector<Operation> ops;
    for (unsigned bits = 0; bits < 8; ++bits) {
        Operation op;
        op.name = "enter/" + std::to_string(bits);
        op.inst = makeInst(Opcode::HfiEnter, bits);
        op.onContext = [bits](HfiContext &ctx, Observed &) {
            SandboxConfig config;
            config.isHybrid = bits & 1;
            config.isSerialized = bits & 2;
            config.switchOnExit = bits & 4;
            config.exitHandler = kEnterHandler;
            ctx.enter(config);
        };
        ops.push_back(op);
    }

    Operation exit_op;
    exit_op.name = "exit";
    exit_op.inst = makeInst(Opcode::HfiExit);
    exit_op.onContext = [](HfiContext &ctx, Observed &seen) {
        seen.handler = ctx.exit();
    };
    ops.push_back(exit_op);

    Operation syscall_op;
    syscall_op.name = "syscall";
    syscall_op.inst = makeInst(Opcode::Syscall, /*write*/ 1);
    syscall_op.onContext = [](HfiContext &ctx, Observed &seen) {
        const auto faults = ctx.stats().faults;
        seen.handler = ctx.onSyscall().value_or(0);
        if (ctx.stats().faults != faults)
            seen.trap = ctx.exitReason();
    };
    ops.push_back(syscall_op);

    for (unsigned n = 0; n <= kNumRegions; ++n) {
        for (const Descriptor &d : kDescriptors) {
            Operation op;
            op.name = "set_region/" + std::to_string(n) + "/" + d.name;
            op.inst = makeInst(Opcode::HfiSetRegion, d.perms, n);
            op.base = d.base;
            op.bound = d.bound;
            op.onContext = [n, d](HfiContext &ctx, Observed &seen) {
                const Region value = sim::detail::regionFromDescriptor(
                    n, d.base, d.bound, d.perms);
                deliverIfTrapped(ctx, ctx.setRegion(n, value), seen);
            };
            ops.push_back(op);
        }
        // Writing Empty is what hfi_clear_region does in the simulator.
        Operation empty;
        empty.name = "set_region/" + std::to_string(n) + "/empty";
        empty.inst = makeInst(Opcode::HfiClearRegion, 0, n);
        empty.onContext = [n](HfiContext &ctx, Observed &seen) {
            deliverIfTrapped(ctx, ctx.setRegion(n, EmptyRegion{}), seen);
        };
        ops.push_back(empty);

        Operation clear;
        clear.name = "clear_region/" + std::to_string(n);
        clear.inst = makeInst(Opcode::HfiClearRegion, 0, n);
        clear.onContext = [n](HfiContext &ctx, Observed &seen) {
            deliverIfTrapped(ctx, ctx.clearRegion(n), seen);
        };
        ops.push_back(clear);
    }

    // A trap: hmov with a negative displacement faults inside HFI
    // (through the checker) and outside it (invalid opcode).
    Operation trap;
    trap.name = "trap";
    trap.inst = makeInst(Opcode::HmovLoad, -8, 0);
    trap.inst.rd = 1;
    trap.inst.width = 8;
    trap.onContext = [](HfiContext &ctx, Observed &seen) {
        HmovOperands ops;
        ops.displacement = -8;
        seen.trap = ctx.enabled()
                        ? AccessChecker::checkHmov(ctx, 0, ops, false).reason
                        : ExitReason::HardwareFault;
        ctx.onFault(seen.trap);
    };
    ops.push_back(trap);
    return ops;
}

/** Bring a fresh HfiContext into the state named by @p bits. */
void
setUpState(HfiContext &ctx, unsigned bits)
{
    const bool enabled = bits & 1;
    const bool shadow_valid = bits & 16;

    // A non-None MSR, so a model that forgets to write it shows.
    ctx.onFault(ExitReason::HardwareFault);

    HfiRegisterFile runtime;
    runtime.setRegion(0, ImplicitCodeRegion{0x400000, 0xffff, true});
    runtime.setRegion(2, ImplicitDataRegion{0x200000, 0xfffff, true, true});
    runtime.enabled = true;
    runtime.config.isHybrid = true;
    runtime.config.isSerialized = true;
    ctx.kernelXrstor(runtime);
    if (shadow_valid) {
        SandboxConfig child;
        child.switchOnExit = true;
        ctx.enter(child); // the runtime's bank moves to the shadow
    }

    HfiRegisterFile active;
    active.setRegion(0, ImplicitCodeRegion{0x400000, 0xffff, true});
    active.setRegion(3, ImplicitDataRegion{0x10000, 0xffff, true, false});
    active.setRegion(kFirstExplicitRegion,
                     ExplicitDataRegion{0x100000, 1 << 16, true, true, true});
    active.enabled = enabled;
    active.config.isHybrid = bits & 2;
    active.config.isSerialized = bits & 4;
    active.config.switchOnExit = bits & 8;
    active.config.exitHandler = bits & 32 ? kStateHandler : 0;
    ctx.kernelXrstor(active);
}

Observed
runOnContext(const Operation &op, unsigned bits)
{
    vm::VirtualClock clock;
    HfiContext ctx(clock);
    setUpState(ctx, bits);
    Observed seen;
    const auto serializations = ctx.stats().serializations;
    op.onContext(ctx, seen);
    seen.serializes = ctx.stats().serializations != serializations;
    seen.state = ctx.state();
    return seen;
}

Observed
runOnFunctionalCore(const Operation &op, const HfiState &start)
{
    ArchState arch;
    arch.pc = kPc;
    arch.hfi = start;
    arch.regs[kBaseReg] = op.base;
    arch.regs[kBoundReg] = op.bound;
    arch.regs[sim::kExitHandlerReg] = kEnterHandler;
    sim::SimMemory mem;
    sim::DirectMem view{mem};
    const sim::ExecInfo info =
        sim::FunctionalCore::executeOn(op.inst, kPc, arch, view);

    Observed seen;
    if (info.faulted) {
        seen.trap = info.faultReason;
        arch.hfi.trap(info.faultReason); // retirement
    } else if (info.nextPc != kPc + op.inst.length) {
        seen.handler = info.nextPc;
    }
    seen.serializes = info.serializes;
    seen.state = arch.hfi;
    return seen;
}

TEST(HfiModel, ContextAndFunctionalCoreAgreeOnEveryTransition)
{
    const std::vector<Operation> ops = allOperations();
    ASSERT_EQ(ops.size(), 8u + 1 + 1 + (kNumRegions + 1) * 8 + 1);
    for (unsigned bits = 0; bits < 64; ++bits) {
        vm::VirtualClock clock;
        HfiContext probe(clock);
        setUpState(probe, bits);
        const HfiState start = probe.state();
        ASSERT_EQ(start.bank.enabled, (bits & 1) != 0);
        ASSERT_EQ(start.shadowValid, (bits & 16) != 0);

        for (const Operation &op : ops) {
            SCOPED_TRACE("state bits " + std::to_string(bits) + ", " +
                         op.name);
            const Observed ctx = runOnContext(op, bits);
            const Observed core = runOnFunctionalCore(op, start);
            EXPECT_TRUE(ctx.state.bank == core.state.bank);
            EXPECT_TRUE(ctx.state.shadow == core.state.shadow);
            EXPECT_EQ(ctx.state.shadowValid, core.state.shadowValid);
            EXPECT_EQ(ctx.state.msr, core.state.msr);
            EXPECT_EQ(ctx.trap, core.trap);
            EXPECT_EQ(ctx.handler, core.handler);
            EXPECT_EQ(ctx.serializes, core.serializes);
        }
    }
}

TEST(HfiModel, RegionRegistersRoundTripAtExtremes)
{
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    const std::vector<std::pair<unsigned, Region>> cases = {
        {0, EmptyRegion{}},
        {1, ImplicitCodeRegion{kMax, kMax, true}},
        {0, ImplicitCodeRegion{0, 0, false}},
        {2, ImplicitDataRegion{kMax, kMax, true, false}},
        {5, ImplicitDataRegion{0, 0, false, true}},
        {6, ExplicitDataRegion{kMax, kMax, true, true, true}},
        {9, ExplicitDataRegion{0, 0, false, false, false}},
        {7, ExplicitDataRegion{kMax - 0xffff, kLargeRegionMaxBound, false,
                               true, true}},
    };
    for (const auto &[n, value] : cases) {
        HfiRegisterFile bank;
        bank.setRegion(n, value);
        EXPECT_TRUE(bank.region(n) == value) << "register " << n;
        EXPECT_EQ(bank.flat(n).kind, static_cast<RegionKind>(value.index()));
    }

    // Through hfi_set_region, every storable extreme reads back exactly.
    vm::VirtualClock clock;
    HfiContext ctx(clock);
    const ImplicitCodeRegion code{0, kMax, true}; // the whole space
    const ImplicitDataRegion top{1ULL << 63, (1ULL << 63) - 1, true, true};
    const ExplicitDataRegion large{kMax - 0xffff - kLargeRegionMaxBound,
                                   kLargeRegionMaxBound, true, true, true};
    const ExplicitDataRegion small{kMax - 0xffff'ffff, 0xffff'ffff, true,
                                   false, false};
    ASSERT_EQ(ctx.setRegion(0, code), HfiResult::Ok);
    ASSERT_EQ(ctx.setRegion(4, top), HfiResult::Ok);
    ASSERT_EQ(ctx.setRegion(6, large), HfiResult::Ok);
    ASSERT_EQ(ctx.setRegion(9, small), HfiResult::Ok);
    EXPECT_TRUE(*ctx.getRegion(0) == Region{code});
    EXPECT_TRUE(*ctx.getRegion(4) == Region{top});
    EXPECT_TRUE(*ctx.getRegion(6) == Region{large});
    EXPECT_TRUE(*ctx.getRegion(9) == Region{small});
}

/**
 * A native sandbox whose body runs hfi_exit: control must land on the
 * installed exit handler (r1 = 222), not fall through (r1 = 111).
 */
sim::Program
nativeExitProgram()
{
    auto build = [](std::int64_t handler) {
        sim::ProgramBuilder b;
        b.movi(kBaseReg, 0x400000).movi(kBoundReg, 0xffff);
        b.hfiSetRegion(0, kBaseReg, kBoundReg, /*exec*/ 4);
        b.movi(sim::kExitHandlerReg, handler);
        b.hfiEnter(/*hybrid*/ false, /*serialized*/ true);
        b.hfiExit();
        b.movi(1, 111); // skipped: the exit jumps to the handler
        b.halt();
        b.movi(1, 222); // the handler, instruction 8
        b.halt();
        return b.build();
    };
    const std::uint64_t handler = build(0x7fff'ffff).addressOf(8);
    sim::Program prog = build(static_cast<std::int64_t>(handler));
    EXPECT_EQ(prog.addressOf(8), handler);
    return prog;
}

TEST(HfiModel, NativeExitLandsOnHandlerInEveryLoop)
{
    const sim::Program prog = nativeExitProgram();
    const VAddr halt = prog.addressOf(9);

    for (const bool reference : {false, true}) {
        SCOPED_TRACE(reference ? "runReference" : "run");
        ArchState state;
        state.pc = prog.base();
        sim::SimMemory mem;
        if (reference)
            sim::FunctionalCore::runReference(prog, state, mem);
        else
            sim::FunctionalCore::run(prog, state, mem);
        EXPECT_EQ(state.regs[1], 222u);
        EXPECT_EQ(state.pc, halt + prog.at(halt)->length);
        EXPECT_FALSE(state.hfi.bank.enabled);
        EXPECT_EQ(state.hfi.msr, ExitReason::HfiExit);
    }

    sim::Pipeline pipe(prog);
    const sim::PipelineResult res = pipe.run();
    EXPECT_TRUE(res.halted);
    EXPECT_FALSE(res.faulted);
    EXPECT_EQ(pipe.state().regs[1], 222u);
    EXPECT_FALSE(pipe.state().hfi.bank.enabled);
    EXPECT_EQ(pipe.state().hfi.msr, ExitReason::HfiExit);
}

/**
 * The pipeline drains before an instruction exactly when executing it
 * will serialize: a serialized configuration's hfi_exit serializes even
 * with HFI already off, so it waits for the multiply chain like the
 * same exit with HFI on (the other variant re-enters instead of
 * exiting, an equally long serializing instruction).
 */
TEST(HfiModel, PipelineDrainsBeforeSerializedExitWithHfiOff)
{
    auto run = [](bool hfi_off_at_exit) {
        sim::ProgramBuilder b;
        b.movi(kBaseReg, 0x400000).movi(kBoundReg, 0xffff);
        b.hfiSetRegion(0, kBaseReg, kBoundReg, /*exec*/ 4);
        b.movi(sim::kExitHandlerReg, 0);
        b.hfiEnter(/*hybrid*/ true, /*serialized*/ true);
        if (hfi_off_at_exit)
            b.hfiExit();
        else
            b.hfiEnter(/*hybrid*/ true, /*serialized*/ true);
        b.movi(1, 3);
        for (int i = 0; i < 24; ++i)
            b.mul(1, 1, 1);
        b.hfiExit();
        for (int i = 0; i < 8; ++i)
            b.addi(2, 2, 1);
        b.halt();
        sim::Pipeline pipe(b.build());
        const sim::PipelineResult res = pipe.run();
        EXPECT_TRUE(res.halted);
        EXPECT_EQ(pipe.stats().serializations, 3u);
        return res.cycles;
    };
    EXPECT_EQ(run(true), run(false));
}

} // namespace
