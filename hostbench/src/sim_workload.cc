/**
 * @file
 * fig2_sim: every Fig 2 kernel in both HFI renderings, run on the
 * functional core and on the cycle-level pipeline. No serving code runs.
 */

#include <cinttypes>
#include <cstdio>
#include <optional>

#include "serve/load_gen.h"
#include "sim/functional.h"
#include "sim/kernels.h"
#include "sim/pipeline.h"
#include "workload.h"

namespace hostbench
{

namespace
{

namespace sim = hfi::sim;

/** Fig 2's kernel size knob. */
constexpr std::uint64_t kScale = 2;
constexpr std::uint64_t kMaxCycles = 500'000'000;

/** FNV over the kernel heap, 8 bytes at a time. */
std::uint64_t
heapDigest(const sim::SimMemory &mem)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t a = 0; a < sim::kernels::kHeapBytes; a += 8) {
        h ^= mem.read(sim::kernels::kHeapBase + a, 8);
        h *= 0x100000001b3ULL;
    }
    return h;
}

class Fig2Sim final : public Workload
{
  public:
    explicit Fig2Sim(std::uint64_t seed) : seed_(seed)
    {
        std::uint64_t state = seed ^ 0xf162f162ULL;
        stageSeed_ = static_cast<std::uint32_t>(hfi::serve::splitmix64(state));
        const std::int64_t t0 = nowNs();
        for (const auto &kernel : sim::kernels::suite()) {
            for (const auto mode : {sim::kernels::Mode::HfiHardware,
                                    sim::kernels::Mode::HfiEmulation}) {
                cells_.push_back(
                    {&kernel, kernel.build(mode, kScale),
                     kernel.name +
                         (mode == sim::kernels::Mode::HfiHardware ? "/hw"
                                                                  : "/emu")});
            }
        }
        buildMs_ = static_cast<double>(nowNs() - t0) / 1e6;
        traced_.cycles.assign(cells_.size(), 0);
        traced_.insts.assign(cells_.size(), 0);
    }

    void
    warmUp() override
    {
        // The functional core over everything, and the pipeline on the
        // first kernel in both modes: a full pipeline pass would be a
        // whole round.
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            Outcome out;
            runFunctional(c, nullptr, out);
            if (c < 2)
                runPipeline(c, nullptr, out);
        }
    }

    void
    round(SpanLog *log, GapLog &gaps, Tally &tally,
          std::vector<CellTime> &cells) override
    {
        cells.assign(cells_.size(), {});
        std::vector<double> probes;
        const bool first = refs_.empty();
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            probes.push_back(calibrate(calibration(), log));
            const std::int64_t t0 = nowNs();
            gaps.beginRun();
            Outcome out;
            gaps.mark();
            runFunctional(c, log, out);
            gaps.mark();
            runPipeline(c, log, out);
            tally.attempted += 2;
            tally.simInsts += out.funcInsts + out.pipeInsts;

            const std::string where = "fig2_sim " + cells_[c].name + ": ";
            if (!out.pipeHalted)
                tally.fail(where + "the pipeline did not halt");
            if (out.funcInsts != out.pipeInsts || out.funcRegs != out.pipeRegs ||
                out.funcHeap != out.pipeHeap)
                tally.fail(where + "functional and pipeline final states "
                                   "differ");
            if (first)
                refs_.push_back(fingerprintOf(out));
            else if (fingerprintOf(out) != refs_[c])
                tally.fail(where + "modeled result differs between rounds");
            if (log) {
                traced_.activeCycles += out.profile.activeCycles;
                traced_.skippedCycles += out.profile.skippedCycles;
                traced_.cycles[c] += out.cycles;
                traced_.insts[c] += out.pipeInsts;
            }
            // Closes the pipeline run's gap: the last start of the cell.
            gaps.mark();
            gaps.endRun();
            cells[c].seconds = static_cast<double>(nowNs() - t0) / 1e9;
        }
        probes.push_back(calibrate(calibration(), log));
        const auto speeds = speedsBetween(calibration(), probes);
        for (std::size_t c = 0; c < cells.size(); ++c)
            cells[c].speed = speeds[c];
    }

    void
    finish(Tally &tally) override
    {
        if (seed_ != kDefaultSeed)
            return;
        for (std::size_t c = 0; c < cells_.size() && c < refs_.size(); ++c)
            if (auto err = checkPinned("fig2_sim", cells_[c].name, refs_[c]);
                !err.empty())
                tally.fail(err);
    }

    void
    layerMetrics(const std::vector<Span> &spans,
                 const std::vector<double> &self, const GapLog &,
                 unsigned traced_rounds, Metrics &out) override
    {
        double stageNs = 0, funcNs = 0, funcInsts = 0, pipeNs = 0;
        std::vector<double> pipeNsByKernel(cells_.size() / 2);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            if (s.layer == Layer::SimStage)
                stageNs += static_cast<double>(s.duration());
            else if (s.layer == Layer::SimFunctional) {
                funcNs += self[i];
                funcInsts += static_cast<double>(s.count);
            } else if (s.layer == Layer::SimPipeline) {
                pipeNs += self[i];
                pipeNsByKernel[s.cell / 2] += self[i];
            }
        }
        double pipeInsts = 0, cycles = 0;
        std::vector<double> instsByKernel(cells_.size() / 2);
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            pipeInsts += static_cast<double>(traced_.insts[c]);
            cycles += static_cast<double>(traced_.cycles[c]);
            instsByKernel[c / 2] += static_cast<double>(traced_.insts[c]);
        }
        out["sim.build_ms"] = buildMs_;
        if (traced_rounds > 0)
            out["sim.stage_ms"] = stageNs / traced_rounds / 1e6;
        if (funcInsts > 0)
            out["sim.functional.ns_per_inst"] = funcNs / funcInsts;
        if (pipeInsts > 0)
            out["sim.pipeline.ns_per_inst"] = pipeNs / pipeInsts;
        if (cycles > 0)
            out["sim.pipeline.ns_per_cycle"] = pipeNs / cycles;
        const auto quiet = static_cast<double>(traced_.skippedCycles);
        const auto total = quiet + static_cast<double>(traced_.activeCycles);
        if (total > 0)
            out["sim.pipeline.skipped_cycle_frac"] = quiet / total;
        for (std::size_t k = 0; k < instsByKernel.size(); ++k)
            if (instsByKernel[k] > 0)
                out["sim.pipeline.ns_per_inst." + cells_[2 * k].kernel->name] =
                    pipeNsByKernel[k] / instsByKernel[k];
    }

    /** 64 requests a round: p80 is the highest with ten beyond it. */
    double tailPct() const override { return 80; }
    /** Interpreters: compute-bound. */
    Calibration calibration() const override { return Calibration::Compute; }

  private:
    struct Cell
    {
        const sim::kernels::Kernel *kernel;
        sim::Program program;
        std::string name;
    };
    struct Outcome
    {
        std::uint64_t funcInsts = 0, pipeInsts = 0, cycles = 0;
        bool pipeHalted = false;
        std::array<std::uint64_t, sim::kNumRegs> funcRegs{}, pipeRegs{};
        std::uint64_t funcHeap = 0, pipeHeap = 0;
        sim::PipelineProfile profile{};
    };

    static std::string
    fingerprintOf(const Outcome &o)
    {
        char buf[128];
        std::snprintf(buf, sizeof buf, "insts=%" PRIu64 " cycles=%" PRIu64,
                      o.pipeInsts, o.cycles);
        return buf;
    }

    void
    runFunctional(std::size_t c, SpanLog *log, Outcome &out)
    {
        const Cell &cell = cells_[c];
        const auto tag = static_cast<std::uint16_t>(c);
        sim::ArchState state;
        state.pc = cell.program.base();
        sim::SimMemory mem;
        {
            ScopedSpan run(log, Layer::SimFunctional, tag);
            {
                ScopedSpan stage(log, Layer::SimStage, tag);
                cell.kernel->stage(mem, kScale, stageSeed_);
            }
            out.funcInsts = sim::FunctionalCore::run(cell.program, state, mem);
            run.setCount(out.funcInsts);
        }
        out.funcRegs = state.regs;
        out.funcHeap = heapDigest(mem);
    }

    void
    runPipeline(std::size_t c, SpanLog *log, Outcome &out)
    {
        const Cell &cell = cells_[c];
        const auto tag = static_cast<std::uint16_t>(c);
        std::optional<sim::Pipeline> pipe;
        sim::PipelineResult res;
        {
            ScopedSpan run(log, Layer::SimPipeline, tag);
            pipe.emplace(cell.program);
            {
                ScopedSpan stage(log, Layer::SimStage, tag);
                cell.kernel->stage(pipe->memory(), kScale, stageSeed_);
            }
            res = pipe->run(kMaxCycles);
            run.setCount(res.instructions);
        }
        out.pipeInsts = res.instructions;
        out.cycles = res.cycles;
        out.pipeHalted = res.halted && !res.faulted;
        out.pipeRegs = pipe->state().regs;
        out.pipeHeap = heapDigest(pipe->memory());
        out.profile = pipe->profile();
    }

    std::uint64_t seed_;
    std::uint32_t stageSeed_ = 0;
    std::vector<Cell> cells_;
    double buildMs_ = 0;
    std::vector<std::string> refs_;
    struct
    {
        std::uint64_t activeCycles = 0, skippedCycles = 0;
        std::vector<std::uint64_t> cycles, insts; ///< per cell
    } traced_;
};

} // namespace

std::unique_ptr<Workload>
makeFig2Sim(std::uint64_t seed)
{
    return std::make_unique<Fig2Sim>(seed);
}

} // namespace hostbench
