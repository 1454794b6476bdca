/**
 * @file
 * Tests for the out-of-order pipeline: architectural equivalence with
 * the functional reference on every Fig 2 kernel (the strongest
 * correctness property we can assert), plus targeted timing behaviours
 * — serialization, mispredict recovery, store forwarding, cache and
 * HFI-fault interactions.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>

#include "sim/kernels.h"
#include "sim/pipeline.h"

namespace
{

using namespace hfi;
using namespace hfi::sim;

TEST(Pipeline, SimpleLoopMatchesFunctional)
{
    ProgramBuilder b;
    b.movi(1, 0).movi(2, 0).movi(3, 100);
    b.label("loop");
    b.add(1, 1, 2);
    b.addi(2, 2, 1);
    b.blt(2, 3, "loop");
    b.movi(4, 0x5000);
    b.store(1, 4, 0, 8);
    b.halt();
    const Program prog = b.build();

    ArchState ref_state;
    ref_state.pc = prog.base();
    SimMemory ref_mem;
    FunctionalCore::run(prog, ref_state, ref_mem);

    Pipeline pipe(prog);
    const auto res = pipe.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(pipe.memory().read(0x5000, 8), ref_mem.read(0x5000, 8));
    EXPECT_GT(res.instructions, 300u);
    // Out-of-order: multiple instructions per cycle on this loop.
    EXPECT_GT(double(res.instructions) / double(res.cycles), 1.2);
}

/** Every kernel x mode: the pipeline's result equals the functional
 *  executor's (timing must never change architecture). */
struct KernelModeCase
{
    std::size_t kernel;
    kernels::Mode mode;
};

class PipelineKernelEquivalence
    : public ::testing::TestWithParam<KernelModeCase>
{
};

TEST_P(PipelineKernelEquivalence, MatchesFunctional)
{
    const auto &kernel = kernels::suite()[GetParam().kernel];
    const Program prog = kernel.build(GetParam().mode, 1);

    SimMemory ref_mem;
    kernel.stage(ref_mem, 1, 42);
    ArchState ref_state;
    ref_state.pc = prog.base();
    FunctionalCore::run(prog, ref_state, ref_mem, 50'000'000);
    const std::uint64_t ref_result =
        ref_mem.read(kernels::kHeapBase + 0xfff8, 8);

    Pipeline pipe(prog);
    kernel.stage(pipe.memory(), 1, 42);
    const auto res = pipe.run(200'000'000);
    ASSERT_TRUE(res.halted) << kernel.name;
    EXPECT_EQ(pipe.memory().read(kernels::kHeapBase + 0xfff8, 8),
              ref_result)
        << kernel.name;
    EXPECT_NE(ref_result, 0u) << kernel.name;
}

std::vector<KernelModeCase>
allKernelModes()
{
    std::vector<KernelModeCase> cases;
    for (std::size_t i = 0; i < kernels::suite().size(); ++i) {
        cases.push_back({i, kernels::Mode::HfiHardware});
        cases.push_back({i, kernels::Mode::HfiEmulation});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, PipelineKernelEquivalence,
    ::testing::ValuesIn(allKernelModes()),
    [](const ::testing::TestParamInfo<KernelModeCase> &info) {
        std::string name = kernels::suite()[info.param.kernel].name;
        name += info.param.mode == kernels::Mode::HfiHardware ? "_hw"
                                                              : "_emu";
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(Pipeline, StoreToLoadForwarding)
{
    // A load immediately after a store to the same address must see the
    // stored value even though the store has not committed.
    ProgramBuilder b;
    b.movi(1, 0x5000).movi(2, 77);
    b.store(2, 1, 0, 8);
    b.load(3, 1, 0, 8);
    b.store(3, 1, 8, 8);
    b.halt();
    Pipeline pipe(b.build());
    ASSERT_TRUE(pipe.run().halted);
    EXPECT_EQ(pipe.memory().read(0x5008, 8), 77u);
}

TEST(Pipeline, PartialStoreForwarding)
{
    ProgramBuilder b;
    b.movi(1, 0x5000);
    b.movi(2, static_cast<std::int64_t>(0x1111111111111111ULL));
    b.store(2, 1, 0, 8);
    b.movi(3, 0xff);
    b.store(3, 1, 2, 1); // overwrite byte 2
    b.load(4, 1, 0, 8);  // must merge both stores
    b.movi(5, 0x6000);
    b.store(4, 5, 0, 8);
    b.halt();
    Pipeline pipe(b.build());
    ASSERT_TRUE(pipe.run().halted);
    EXPECT_EQ(pipe.memory().read(0x6000, 8), 0x1111111111ff1111ULL);
}

TEST(Pipeline, ForwardingMergesStoresAtTheLoadsEdges)
{
    // Loads that merge in-flight stores of widths 1, 2 and 4, among
    // them a store whose last byte is a load's first byte and one that
    // starts at a load's last byte; a store younger than the loads must
    // not forward. The cold load in front keeps every store in the
    // store queue (it cannot commit for ~80 cycles), so the merge is
    // the pipeline's forwarding, not memory.
    constexpr std::int64_t kA = 0x5000;
    ProgramBuilder b;
    b.movi(9, 0x300000);
    b.load(8, 9, 0, 8);
    b.movi(1, kA);
    b.movi(2, 0x44332211).store(2, 1, -3, 4); // last byte at A
    b.movi(2, 0x6655).store(2, 1, 2, 2);
    b.movi(2, 0x0d0c0b0a).store(2, 1, 4, 4);
    b.movi(2, 0x77).store(2, 1, 4, 1); // younger than the 4-byte one
    b.movi(2, 0x9988).store(2, 1, 7, 2); // first byte at A + 7
    b.load(3, 1, 0, 8);
    b.load(4, 1, 5, 4);
    b.load(5, 1, -1, 2);
    b.movi(2, static_cast<std::int64_t>(0xdeadbeef)).store(2, 1, 1, 4);
    b.movi(6, 0x6000);
    b.store(3, 6, 0, 8).store(4, 6, 8, 8).store(5, 6, 16, 8);
    b.halt();
    const Program prog = b.build();

    // Distinct background bytes around A: byte A + j holds 0xa8 + j.
    auto stage = [](SimMemory &mem) {
        for (std::uint64_t k = 0; k < 24; ++k)
            mem.write(kA - 8 + k, 0xa0 + k, 1);
    };
    SimMemory ref_mem;
    stage(ref_mem);
    ArchState ref_state;
    ref_state.pc = prog.base();
    FunctionalCore::run(prog, ref_state, ref_mem);

    Pipeline pipe(prog);
    stage(pipe.memory());
    ASSERT_TRUE(pipe.run().halted);
    EXPECT_EQ(pipe.state().regs, ref_state.regs);
    for (std::uint64_t off = 0; off < 24; off += 8)
        EXPECT_EQ(pipe.memory().read(0x6000 + off, 8),
                  ref_mem.read(0x6000 + off, 8))
            << "offset " << off;
    EXPECT_EQ(pipe.state().regs[3], 0x880c0b776655a944ULL);
    EXPECT_EQ(pipe.state().regs[4], 0x99880c0bULL);
    EXPECT_EQ(pipe.state().regs[5], 0x4433ULL);
}

TEST(Pipeline, MispredictRecoveryIsArchitecturallyInvisible)
{
    // A data-dependent unpredictable branch pattern: results must still
    // match the functional reference exactly.
    ProgramBuilder b;
    b.movi(1, 12345).movi(2, 0).movi(3, 0).movi(4, 500);
    b.label("loop");
    // r1 = lcg(r1); branch on bit 3.
    b.movi(5, 1103515245);
    b.mul(1, 1, 5);
    b.addi(1, 1, 12345);
    b.shri(5, 1, 16);
    b.andi(5, 5, 8);
    b.beq(5, 0, "skip");
    b.addi(2, 2, 1);
    b.label("skip");
    b.addi(3, 3, 1);
    b.blt(3, 4, "loop");
    b.movi(6, 0x5000);
    b.store(2, 6, 0, 8);
    b.halt();
    const Program prog = b.build();

    SimMemory ref_mem;
    ArchState ref_state;
    ref_state.pc = prog.base();
    FunctionalCore::run(prog, ref_state, ref_mem);

    Pipeline pipe(prog);
    const auto res = pipe.run();
    ASSERT_TRUE(res.halted);
    EXPECT_EQ(pipe.memory().read(0x5000, 8), ref_mem.read(0x5000, 8));
    EXPECT_GT(pipe.stats().mispredicts, 50u); // it really mispredicted
    EXPECT_GT(pipe.stats().squashed, 0u);
}

TEST(Pipeline, CpuidSerializesAndCosts)
{
    ProgramBuilder straight;
    for (int i = 0; i < 32; ++i)
        straight.addi(1, 1, 1);
    straight.halt();
    Pipeline p1(straight.build());
    const auto base = p1.run().cycles;

    ProgramBuilder fenced;
    for (int i = 0; i < 16; ++i)
        fenced.addi(1, 1, 1);
    fenced.cpuid();
    for (int i = 0; i < 16; ++i)
        fenced.addi(1, 1, 1);
    fenced.halt();
    Pipeline p2(fenced.build());
    const auto with_fence = p2.run().cycles;
    EXPECT_GT(with_fence, base + 20); // drain + flush cost
    EXPECT_EQ(p2.stats().serializations, 1u);
}

TEST(Pipeline, SerializedHfiEnterCostsUnserializedDoesNot)
{
    auto measure = [](bool serialized) {
        ProgramBuilder b;
        b.movi(11, 0x400000).movi(12, 0xffff);
        b.hfiSetRegion(0, 11, 12, 4);
        b.movi(kExitHandlerReg, 0);
        b.hfiEnter(true, serialized);
        for (int i = 0; i < 16; ++i)
            b.addi(1, 1, 1);
        b.hfiExit();
        b.halt();
        Pipeline pipe(b.build());
        return pipe.run().cycles;
    };
    const auto serialized = measure(true);
    const auto unserialized = measure(false);
    // §3.4: serialization adds ~30-60 cycles.
    EXPECT_GT(serialized, unserialized + 25);
    EXPECT_LT(serialized, unserialized + 120);
}

TEST(Pipeline, HfiFaultCommitsWithReasonAndPc)
{
    ProgramBuilder b;
    b.movi(11, 0x400000).movi(12, 0xffff);
    b.hfiSetRegion(0, 11, 12, 4);
    b.movi(kExitHandlerReg, 0);
    b.hfiEnter(true, false);
    b.movi(1, 0x5000);
    b.load(2, 1, 0, 8); // no data region: faults
    b.movi(3, 1);       // must never commit
    b.halt();
    const Program prog = b.build();
    Pipeline pipe(prog);
    const auto res = pipe.run();
    EXPECT_FALSE(res.halted);
    EXPECT_TRUE(res.faulted);
    EXPECT_EQ(res.faultReason, core::ExitReason::DataBoundsViolation);
    EXPECT_EQ(res.faultPc, prog.addressOf(6));
}

/**
 * Run @p prog on both cores and expect the same final architectural
 * state: registers, pc, HFI enable bit and exit-reason MSR.
 */
void
expectSameFinalState(const Program &prog, const ArchState &pipe_state)
{
    ArchState ref;
    ref.pc = prog.base();
    SimMemory ref_mem;
    FunctionalCore::run(prog, ref, ref_mem);
    EXPECT_EQ(pipe_state.regs, ref.regs);
    EXPECT_EQ(pipe_state.pc, ref.pc);
    EXPECT_EQ(pipe_state.hfi.bank.enabled, ref.hfi.bank.enabled);
    EXPECT_EQ(pipe_state.hfi.msr, ref.hfi.msr);
}

TEST(Pipeline, FaultLeavesOnlyCommittedState)
{
    // The movis dispatch (and execute) behind the faulting load, but
    // never commit; the fault's retirement disables HFI and sets the MSR.
    ProgramBuilder b;
    b.movi(11, 0x400000).movi(12, 0xffff);
    b.hfiSetRegion(0, 11, 12, 4);
    b.movi(kExitHandlerReg, 0);
    b.hfiEnter(true, false);
    b.movi(1, 0x5000);
    b.load(2, 1, 0, 8); // no data region: faults
    b.movi(5, 77);
    b.movi(6, 88);
    b.halt();
    const Program prog = b.build();
    Pipeline pipe(prog);
    ASSERT_TRUE(pipe.run().faulted);
    const ArchState &state = pipe.state();
    EXPECT_EQ(state.regs[5], 0u);
    EXPECT_EQ(state.regs[6], 0u);
    EXPECT_FALSE(state.hfi.bank.enabled);
    EXPECT_EQ(state.hfi.msr, core::ExitReason::DataBoundsViolation);
    EXPECT_EQ(state.pc, prog.addressOf(6));
    expectSameFinalState(prog, state);
}

TEST(Pipeline, HaltLeavesOnlyCommittedState)
{
    ProgramBuilder b;
    b.movi(1, 5);
    b.halt();
    b.movi(5, 77); // fetched and dispatched past the halt
    b.movi(6, 88);
    b.halt();
    const Program prog = b.build();
    Pipeline pipe(prog);
    ASSERT_TRUE(pipe.run().halted);
    const ArchState &state = pipe.state();
    EXPECT_EQ(state.regs[1], 5u);
    EXPECT_EQ(state.regs[5], 0u);
    EXPECT_EQ(state.regs[6], 0u);
    EXPECT_EQ(state.pc, prog.addressOf(2)); // just past the first halt
    expectSameFinalState(prog, state);
}

TEST(Pipeline, FaultingLoadDoesNotFillDcache)
{
    // §4.1's invariant, microscopically: the line touched by an HFI-
    // rejected load must not be present afterwards.
    ProgramBuilder b;
    b.movi(11, 0x400000).movi(12, 0xffff);
    b.hfiSetRegion(0, 11, 12, 4);
    b.movi(11, 0x100000).movi(12, 0xfff); // data region: one page
    b.hfiSetRegion(2, 11, 12, 3);
    b.movi(kExitHandlerReg, 0);
    b.hfiEnter(true, false);
    b.movi(1, 0x200000); // outside the data region
    b.load(2, 1, 0, 8);
    b.halt();
    Pipeline pipe(b.build());
    const auto res = pipe.run();
    EXPECT_TRUE(res.faulted);
    EXPECT_FALSE(pipe.dcache().contains(0x200000));
}

TEST(Pipeline, AllowedLoadDoesFillDcache)
{
    ProgramBuilder b;
    b.movi(1, 0x300000);
    b.load(2, 1, 0, 8);
    b.halt();
    Pipeline pipe(b.build());
    ASSERT_TRUE(pipe.run().halted);
    EXPECT_TRUE(pipe.dcache().contains(0x300000));
}

TEST(Pipeline, CacheMissCostsShowUp)
{
    // A dependent pointer chain with 64 B stride: every hop is a fresh
    // line (miss) and must complete before the next address is known,
    // so the misses serialize. (Independent-address misses overlap —
    // memory-level parallelism — which a sibling check asserts.)
    ProgramBuilder b2;
    b2.movi(1, 0x100000).movi(2, 0);
    b2.movi(5, 64 * 64);
    b2.label("loop");
    b2.loadIndexed(2, 1, 2, 1, 0, 8); // r2 = mem[base + r2]
    b2.blt(2, 5, "loop");
    b2.halt();
    Pipeline pipe(b2.build());
    // Stage the chain: mem[base + i*64] = (i+1)*64.
    for (std::uint64_t i = 0; i < 65; ++i)
        pipe.memory().write(0x100000 + i * 64, (i + 1) * 64, 8);
    const auto res = pipe.run();
    ASSERT_TRUE(res.halted);
    EXPECT_GE(pipe.dcache().misses(), 64u);
    // 64 serialized misses x 80 cycles dominate.
    EXPECT_GT(res.cycles, 64 * 60u);

    // Contrast: the same addresses with *independent* loads overlap.
    ProgramBuilder b3;
    b3.movi(1, 0x100000).movi(2, 0).movi(5, 64 * 64);
    b3.label("loop");
    b3.loadIndexed(3, 1, 2, 1, 0, 8);
    b3.addi(2, 2, 64);
    b3.blt(2, 5, "loop");
    b3.halt();
    Pipeline mlp(b3.build());
    const auto mlp_res = mlp.run();
    ASSERT_TRUE(mlp_res.halted);
    EXPECT_LT(mlp_res.cycles, res.cycles / 4); // MLP hides the misses
}

TEST(Pipeline, RunsOffProgramEndsCleanly)
{
    ProgramBuilder b;
    b.movi(1, 1); // no halt
    Pipeline pipe(b.build());
    const auto res = pipe.run(100'000);
    EXPECT_FALSE(res.halted);
    EXPECT_FALSE(res.faulted);
    EXPECT_LT(res.cycles, 100'000u);
}

TEST(Pipeline, HmovTimingIsNotSlowerThanPlainLoad)
{
    // §4.2: the hmov check runs in parallel with translation — no added
    // load latency. Compare two identical loops, one hmov, one mov.
    auto measure = [](bool use_hmov) {
        ProgramBuilder b;
        b.movi(11, 0x400000).movi(12, 0xffff);
        b.hfiSetRegion(0, 11, 12, 4);
        b.movi(11, 0).movi(12, 0xffffff); // broad data region
        b.hfiSetRegion(2, 11, 12, 3);
        b.movi(11, 0x100000).movi(12, 1 << 20);
        b.hfiSetRegion(core::kFirstExplicitRegion, 11, 12, 1 | 2 | 8);
        b.movi(kExitHandlerReg, 0);
        b.hfiEnter(true, false);
        b.movi(1, 0x100000); // base for the mov version
        b.movi(2, 0);
        b.movi(5, 4096);
        b.label("loop");
        if (use_hmov) {
            Inst load;
            load.op = Opcode::HmovLoad;
            load.rd = 3;
            load.rb = 2;
            load.useIndex = true;
            load.region = 0;
            load.width = 8;
            load.length = 4; // equalize encoding to isolate check cost
            b.emit(load);
        } else {
            b.loadIndexed(3, 1, 2, 1, 0, 8);
        }
        b.addi(2, 2, 8);
        b.blt(2, 5, "loop");
        b.hfiExit();
        b.halt();
        Pipeline pipe(b.build());
        return pipe.run().cycles;
    };
    const auto hmov_cycles = measure(true);
    const auto mov_cycles = measure(false);
    EXPECT_LE(hmov_cycles, mov_cycles + 8);
}

/**
 * One row per CpuConfig field. Every width, depth and unit count must be
 * at least 1 and is rejected by name at construction; a zero latency is
 * legal and the program runs to its halt. A field added to CpuConfig
 * fails the size guard until it gets a row here.
 */
TEST(Pipeline, CpuConfigValidatedPerField)
{
    static_assert(sizeof(CpuConfig) ==
                      16 * sizeof(unsigned) + 2 * sizeof(CacheConfig),
                  "a CpuConfig field without a row below");
    struct Row
    {
        void (*set)(CpuConfig &);
        const char *error; ///< what the message names; nullptr: legal
    };
    const Row rows[] = {
        {[](CpuConfig &c) { c.fetchBytes = 0; }, "CpuConfig::fetchBytes"},
        {[](CpuConfig &c) { c.decodeWidth = 0; }, "CpuConfig::decodeWidth"},
        {[](CpuConfig &c) { c.issueWidth = 0; }, "CpuConfig::issueWidth"},
        {[](CpuConfig &c) { c.commitWidth = 0; }, "CpuConfig::commitWidth"},
        {[](CpuConfig &c) { c.robSize = 0; }, "CpuConfig::robSize"},
        {[](CpuConfig &c) { c.lqSize = 0; }, "CpuConfig::lqSize"},
        {[](CpuConfig &c) { c.sqSize = 0; }, "CpuConfig::sqSize"},
        {[](CpuConfig &c) { c.decodeQueueDepth = 0; }, "CpuConfig::decodeQueueDepth"},
        {[](CpuConfig &c) { c.intAluCount = 0; }, "CpuConfig::intAluCount"},
        {[](CpuConfig &c) { c.intMultCount = 0; }, "CpuConfig::intMultCount"},
        {[](CpuConfig &c) { c.memPortCount = 0; }, "CpuConfig::memPortCount"},
        {[](CpuConfig &c) { c.aluLatency = 0; }, nullptr},
        {[](CpuConfig &c) { c.mulLatency = 0; }, nullptr},
        {[](CpuConfig &c) { c.divLatency = 0; }, nullptr},
        {[](CpuConfig &c) { c.redirectPenalty = 0; }, nullptr},
        {[](CpuConfig &c) { c.serializeFlushCycles = 0; }, nullptr},
        // Cache geometry is Cache's to check (a 48-byte line).
        {[](CpuConfig &c) { c.icache.lineBytes = 48; }, "Cache:"},
        {[](CpuConfig &c) { c.dcache.lineBytes = 48; }, "Cache:"},
    };

    // Every unit class, the LQ and SQ, a mispredict and a serialization.
    ProgramBuilder b;
    b.movi(1, 0x5000).movi(2, 7).movi(3, 0);
    b.label("loop");
    b.mul(4, 2, 2);
    b.emit(Inst{Opcode::Div, 5, 4, 2});
    b.store(5, 1, 0, 8);
    b.load(6, 1, 0, 8);
    b.addi(3, 3, 1);
    b.blt(3, 2, "loop");
    b.cpuid();
    b.halt();
    const Program prog = b.build();

    for (std::size_t r = 0; r < std::size(rows); ++r) {
        SCOPED_TRACE("row " + std::to_string(r));
        CpuConfig config;
        rows[r].set(config);
        if (!rows[r].error) {
            Pipeline pipe(prog, config);
            const PipelineResult res = pipe.run(100'000);
            EXPECT_TRUE(res.halted);
            EXPECT_EQ(pipe.state().regs[6], 7u);
            continue;
        }
        try {
            Pipeline pipe(prog, config);
            ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(rows[r].error),
                      std::string::npos)
                << e.what();
        }
    }

    // fetchBytes must also cover the longest instruction, or fetch
    // waits for it forever.
    CpuConfig narrow;
    narrow.fetchBytes = 4; // movi is 5 bytes
    EXPECT_THROW(Pipeline(prog, narrow), std::invalid_argument);
}

} // namespace
