/**
 * @file
 * Differential fuzzing of the out-of-order pipeline against the
 * in-order functional executor: randomly generated programs (seeded,
 * reproducible) must produce bit-identical architectural state on both.
 *
 * This is the property that keeps the timing model honest: branch
 * prediction, speculative execution, squash and undo, store-to-load
 * forwarding may change *when* things happen, never *what* happens.
 * It holds at every stop, not just the last: each program is also cut
 * at fifteen cycle budgets, where state() must be the functional
 * executor's state at the committed count, and resuming the cut run
 * must reproduce the uncut one counter for counter.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "sim/pipeline.h"

namespace
{

using namespace hfi::sim;

/** xorshift64* for program generation. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed * 2654435761u + 1) {}

    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dULL;
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state;
};

constexpr std::uint64_t kDataBase = 0x100000;
constexpr std::uint64_t kDataBytes = 1 << 16;

/**
 * Generate a random but guaranteed-terminating program:
 *  - a chain of basic blocks, each with random ALU ops and
 *    window-constrained loads/stores;
 *  - random *forward* conditional branches (cannot loop);
 *  - a few bounded counted loops (fixed trip counts);
 *  - random call/ret pairs into tail helper functions;
 *  - under HFI, sometimes a trapping load in place of the exit;
 *  - a dead tail after the final halt, which the pipeline fetches and
 *    dispatches but must never commit.
 */
Program
generate(std::uint64_t seed, bool with_hfi)
{
    Rng rng(seed);
    ProgramBuilder b;

    // r12 is the data base; r13 masks offsets into the window.
    b.movi(12, static_cast<std::int64_t>(kDataBase));
    b.movi(13, kDataBytes - 8);
    for (unsigned r = 0; r < 10; ++r)
        b.movi(r, static_cast<std::int64_t>(rng.next() >> 8));

    if (with_hfi) {
        // Code + data regions covering exactly the program and window,
        // entered as an unserialized hybrid sandbox so speculation is
        // free to run wild — results must still match.
        b.movi(10, 0x400000);
        b.movi(11, 0xffff);
        b.hfiSetRegion(0, 10, 11, 4);
        b.movi(10, static_cast<std::int64_t>(kDataBase));
        b.movi(11, kDataBytes - 1);
        b.hfiSetRegion(2, 10, 11, 3);
        b.movi(kExitHandlerReg, 0);
        b.hfiEnter(true, false);
    }

    const unsigned blocks = 6 + static_cast<unsigned>(rng.below(6));
    for (unsigned block = 0; block < blocks; ++block) {
        const std::string label = "block" + std::to_string(block);
        b.label(label);

        const unsigned ops = 4 + static_cast<unsigned>(rng.below(10));
        for (unsigned i = 0; i < ops; ++i) {
            const unsigned rd = static_cast<unsigned>(rng.below(10));
            const unsigned ra = static_cast<unsigned>(rng.below(10));
            const unsigned rb = static_cast<unsigned>(rng.below(10));
            switch (rng.below(10)) {
              case 0: b.add(rd, ra, rb); break;
              case 1: b.sub(rd, ra, rb); break;
              case 2: b.mul(rd, ra, rb); break;
              case 3: b.xor_(rd, ra, rb); break;
              case 4: b.or_(rd, ra, rb); break;
              case 5:
                b.shli(rd, ra, static_cast<std::int64_t>(rng.below(31)));
                break;
              case 6:
                b.addi(rd, ra,
                       static_cast<std::int64_t>(rng.below(1 << 20)));
                break;
              case 7: { // masked load: r_rd = [base + (ra & mask)]
                b.and_(11, ra, 13);
                Inst load;
                load.op = Opcode::Load;
                load.rd = static_cast<std::uint8_t>(rd);
                load.ra = 12;
                load.rb = 11;
                load.useIndex = true;
                load.width = static_cast<std::uint8_t>(
                    1u << rng.below(4));
                load.length = defaultLength(load);
                b.emit(load);
                break;
              }
              case 8: { // masked store
                b.and_(11, ra, 13);
                Inst store;
                store.op = Opcode::Store;
                store.rd = static_cast<std::uint8_t>(rd);
                store.ra = 12;
                store.rb = 11;
                store.useIndex = true;
                store.width = static_cast<std::uint8_t>(
                    1u << rng.below(4));
                store.length = defaultLength(store);
                b.emit(store);
                break;
              }
              case 9: // data-dependent forward skip
                if (block + 1 < blocks) {
                    switch (rng.below(4)) {
                      case 0:
                        b.beq(ra, rb,
                              "block" + std::to_string(block + 1));
                        break;
                      case 1:
                        b.bne(ra, rb,
                              "block" + std::to_string(block + 1));
                        break;
                      case 2:
                        b.blt(ra, rb,
                              "block" + std::to_string(block + 1));
                        break;
                      default:
                        b.bge(ra, rb,
                              "block" + std::to_string(block + 1));
                        break;
                    }
                }
                break;
            }
        }

        // Occasionally a bounded counted loop over a mixing body.
        if (rng.below(3) == 0) {
            const std::string loop = "loop" + std::to_string(block);
            b.movi(10, static_cast<std::int64_t>(2 + rng.below(30)));
            b.label(loop);
            b.add(static_cast<unsigned>(rng.below(10)), 10,
                  static_cast<unsigned>(rng.below(10)));
            b.and_(11, 10, 13);
            Inst load;
            load.op = Opcode::Load;
            load.rd = static_cast<std::uint8_t>(rng.below(10));
            load.ra = 12;
            load.rb = 11;
            load.useIndex = true;
            load.width = 8;
            load.length = defaultLength(load);
            b.emit(load);
            b.subi(10, 10, 1);
            b.bne(10, 15, loop); // r15 is 0 in non-HFI runs... see below
        }
    }

    // Spill the final register state so memory comparison covers it.
    for (unsigned r = 0; r < 10; ++r)
        b.store(r, 12, static_cast<std::int64_t>(0x8000 + r * 8), 8);
    if (with_hfi && rng.below(3) == 0) {
        // Just past the data region: an HFI trap ends the run.
        b.movi(10, static_cast<std::int64_t>(kDataBase + kDataBytes));
        b.load(10, 10, 0, 8);
    }
    if (with_hfi)
        b.hfiExit();
    b.halt();
    for (std::uint64_t i = 0, n = 1 + rng.below(3); i < n; ++i) {
        b.movi(static_cast<unsigned>(rng.below(10)),
               static_cast<std::int64_t>(rng.next() >> 8));
    }
    return b.build();
}

using Loop = PipelineResult (Pipeline::*)(std::uint64_t);

/** A run's cycles, committed count and every PipelineStats counter. */
std::array<std::uint64_t, 10>
countersOf(const PipelineResult &res, const PipelineStats &s)
{
    return {res.cycles, res.instructions, s.fetched, s.dispatched,
            s.committed, s.squashed, s.mispredicts, s.serializations,
            s.hfiDataChecks, s.hfiFaultsSuppressed};
}

/**
 * @p pipe's committed state equals the functional executor's @p ref and
 * @p ref_mem: registers, pc, the whole HfiState and the data window.
 */
void
expectCommitted(Pipeline &pipe, const ArchState &ref, const SimMemory &ref_mem)
{
    const ArchState &state = pipe.state();
    EXPECT_EQ(state.regs, ref.regs);
    EXPECT_EQ(state.pc, ref.pc);
    EXPECT_TRUE(state.hfi == ref.hfi);
    for (std::uint64_t off = 0; off < kDataBytes; off += 8) {
        ASSERT_EQ(pipe.memory().read(kDataBase + off, 8),
                  ref_mem.read(kDataBase + off, 8))
            << "offset 0x" << std::hex << off;
    }
}

/**
 * Run @p prog both ways and compare all architectural outputs; then cut
 * the pipeline at k/16 of its cycles (k = 1..15) under both loops. Each
 * cut must leave the functional executor's state at the committed
 * count, and resuming it must reproduce the uncut run exactly.
 */
void
compareRuns(std::uint64_t seed, bool with_hfi, const CpuConfig &config = {})
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Program prog = generate(seed, with_hfi);

    SimMemory ref_mem;
    ArchState ref_state;
    ref_state.pc = prog.base();
    const std::uint64_t steps =
        FunctionalCore::run(prog, ref_state, ref_mem, 2'000'000);
    ASSERT_LT(steps, 2'000'000u) << "did not halt";

    Pipeline pipe(prog, config);
    const auto res = pipe.run(50'000'000);
    ASSERT_TRUE(res.halted || res.faulted);

    // Committed architectural state, not just memory: a halt or fault
    // must leave nothing of the instructions dispatched behind it.
    expectCommitted(pipe, ref_state, ref_mem);

    for (std::uint64_t k = 1; k < 16; ++k) {
        for (const Loop loop : {&Pipeline::run, &Pipeline::runReference}) {
            SCOPED_TRACE("cut at " + std::to_string(k) + "/16, " +
                         (loop == &Pipeline::run ? "run" : "runReference"));
            Pipeline cut(prog, config);
            const PipelineResult part = (cut.*loop)(res.cycles * k / 16);
            ASSERT_FALSE(part.halted || part.faulted);
            SimMemory prefix_mem;
            ArchState prefix;
            prefix.pc = prog.base();
            FunctionalCore::run(prog, prefix, prefix_mem, part.instructions);
            expectCommitted(cut, prefix, prefix_mem);

            const PipelineResult whole = (cut.*loop)(50'000'000);
            EXPECT_EQ(whole.halted, res.halted);
            EXPECT_EQ(countersOf(whole, cut.stats()),
                      countersOf(res, pipe.stats()));
            expectCommitted(cut, ref_state, ref_mem);
        }
    }
}

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PipelineFuzz, MatchesFunctionalExecutor)
{
    compareRuns(GetParam(), false);
}

TEST_P(PipelineFuzz, MatchesFunctionalExecutorUnderHfi)
{
    compareRuns(GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

/**
 * Timing pins beyond the default core. The parity suite compares run()
 * with runReference(), but both share the issue rings, the resolve
 * calendar and the store queue, so a bug in those is invisible to it.
 * Here the generated programs run under three non-default cores, and
 * the cycles and every PipelineStats counter are pinned to the values
 * the model produced when these pins were taken.
 */
struct TimingPin
{
    std::uint64_t cycles = 0;     ///< summed over the 48 programs
    std::uint64_t dispatched = 0; ///< summed over the 48 programs
    std::uint64_t squashed = 0;   ///< summed over the 48 programs
    std::uint64_t digest = 0;     ///< FNV-1a over each run's cycles and stats
};

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Every generated program on @p config, with and without HFI. */
TimingPin
timingOf(const CpuConfig &config)
{
    TimingPin pin;
    pin.digest = 0xcbf29ce484222325ULL;
    for (std::uint64_t seed = 1; seed < 25; ++seed) {
        for (const bool with_hfi : {false, true}) {
            Pipeline pipe(generate(seed, with_hfi), config);
            const auto res = pipe.run(50'000'000);
            EXPECT_TRUE(res.halted || res.faulted) << "seed " << seed;
            const PipelineStats &s = pipe.stats();
            for (const std::uint64_t v : countersOf(res, s))
                pin.digest = fnv(pin.digest, v);
            pin.cycles += res.cycles;
            pin.dispatched += s.dispatched;
            pin.squashed += s.squashed;
        }
    }
    return pin;
}

void
expectTiming(const CpuConfig &config, const TimingPin &want)
{
    const TimingPin got = timingOf(config);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.dispatched, want.dispatched);
    EXPECT_EQ(got.squashed, want.squashed);
    EXPECT_EQ(got.digest, want.digest);
    // The architectural results hold on this core too.
    for (std::uint64_t seed = 1; seed < 25; ++seed) {
        compareRuns(seed, false, config);
        compareRuns(seed, true, config);
    }
}

TEST(PipelineFuzzTiming, SmallWindow)
{
    // An 8-entry ROB with 4 load and 4 store slots: dispatch stalls on
    // every structure, and squashes reach across a wrapped ring.
    CpuConfig config;
    config.robSize = 8;
    config.lqSize = 4;
    config.sqSize = 4;
    expectTiming(config, {29583, 13427, 884, 4302559087352298055ULL});
}

TEST(PipelineFuzzTiming, OneAluOneMemoryPort)
{
    // One unit of each kind: issue waits on units, not on the width.
    CpuConfig config;
    config.intAluCount = 1;
    config.memPortCount = 1;
    expectTiming(config, {56584, 42601, 30054, 17574273427747775338ULL});
}

TEST(PipelineFuzzTiming, FarMemory)
{
    // A 2000-cycle dcache miss: completions and dependent issues land
    // beyond the 1024-cycle issue and resolve rings, which must grow.
    CpuConfig config;
    config.dcache.missLatency = 2000;
    expectTiming(config, {291411, 29007, 16464, 2266988231016312020ULL});
}

} // namespace
