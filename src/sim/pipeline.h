/**
 * @file
 * The cycle-level out-of-order core — our stand-in for the paper's gem5
 * Skylake model (§5.2, Table 2), with the HFI µ-architecture of §4.
 *
 * Model summary:
 *
 *  - Fetch follows branch prediction (2-bit PHT direction, RSB returns)
 *    at 16 bytes/cycle through the icache; variable instruction lengths
 *    make hmov's prefix byte cost real fetch bandwidth.
 *  - Instructions execute *functionally at dispatch* against a
 *    speculative ArchState (wrong-path instructions therefore compute
 *    with real values — required for the Spectre experiments), while
 *    issue/complete timing is modeled with a scoreboard over the ROB,
 *    issue-width and functional-unit constraints, and load latencies
 *    from the dtb + dcache.
 *  - Speculative loads access (and fill) the dcache — *unless* their
 *    HFI region check failed, in which case the access is turned into
 *    a faulting NOP that touches no cache state (§4.1); the dtb may
 *    still be touched, matching the paper's weaker i-cache/dtb
 *    invariant.
 *  - Speculative stores sit in the store queue and drain to memory at
 *    commit; younger loads forward from them byte-wise.
 *  - Each ROB entry records what its dispatch overwrote. A mispredict
 *    undoes the younger entries, youngest first, and redirects fetch
 *    after a refill penalty; every stop (halt, fault or cycle budget)
 *    undoes what is in flight, so state() is the committed prefix.
 *  - Serializing instructions (cpuid, serialized hfi_enter/hfi_exit,
 *    region updates inside a hybrid sandbox) drain the ROB before
 *    dispatch and add a flush cost — §3.4's 30-60-cycle price.
 *
 * Two run loops share the stage functions: runReference() ticks every
 * cycle literally, run() skips provably idle cycles by advancing the
 * clock to the next event (earliest completion, commit eligibility, or
 * fetch-stall expiry). The two are cycle-for-cycle identical — the
 * parity tests cross-validate them over the whole kernel suite.
 */

#ifndef HFI_SIM_PIPELINE_H
#define HFI_SIM_PIPELINE_H

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "obs/obs_gate.h"
#include "sim/branch_predictor.h"
#include "sim/cache.h"
#include "sim/cpu_config.h"
#include "sim/functional.h"
#include "sim/memory.h"
#include "sim/program.h"

namespace hfi::sim
{

/** Outcome of a pipeline run. */
struct PipelineResult
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0; ///< committed
    bool halted = false;            ///< reached Halt / exit_group
    bool faulted = false;
    core::ExitReason faultReason = core::ExitReason::None;
    std::uint64_t faultPc = 0;
};

/**
 * Cycle-breakdown profile of the event-driven loop: how many cycles ran
 * the stage functions versus were proven quiet and skipped, and which
 * wake-up source each skip landed on. The event-driven core computes
 * the attribution anyway (the min over commit-eligibility, the next
 * resolution, and the fetch-stall expiry); this records instead of
 * discarding it. Counters only — modeled cycles are untouched, and the
 * whole thing compiles away under HFI_OBS=OFF.
 */
struct PipelineProfile
{
    std::uint64_t activeCycles = 0;  ///< cycles the stage loop executed
    std::uint64_t skippedCycles = 0; ///< quiet cycles jumped over
    std::uint64_t skipsToCommit = 0; ///< skips woken by a commit-eligible ROB front
    std::uint64_t skipsToResolve = 0; ///< skips woken by the next resolution
    std::uint64_t skipsToFetch = 0;   ///< skips woken by fetch-stall expiry
};

/** Microarchitectural event counters. */
struct PipelineStats
{
    std::uint64_t fetched = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t committed = 0;
    std::uint64_t squashed = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t serializations = 0;
    std::uint64_t hfiDataChecks = 0;
    std::uint64_t hfiFaultsSuppressed = 0; ///< wrong-path faults squashed
};

class Pipeline
{
  public:
    /** The program is copied: the pipeline owns its code image. */
    explicit Pipeline(Program program, CpuConfig config = {});

    /** Committed state after any stop; set registers before the first
        run. */
    ArchState &state() { return archState; }

    SimMemory &memory() { return mem; }

    /**
     * Run until Halt, a committed fault, or @p max_cycles (cumulative: a
     * later call resumes a cut run; after a halt or fault it is a no-op).
     *
     * Event-driven: cycles in which no stage can act are skipped by
     * advancing the clock straight to the next event. Cycle-for-cycle
     * identical to runReference().
     */
    PipelineResult run(std::uint64_t max_cycles = 1'000'000'000);

    /**
     * The literal one-tick-per-cycle loop over the same stage
     * functions — the timing reference run() is validated against.
     */
    PipelineResult runReference(std::uint64_t max_cycles = 1'000'000'000);

    Cache &dcache() { return dcache_; }
    Cache &icache() { return icache_; }
    Cache &dtb() { return dtb_; }
    const PipelineStats &stats() const { return stats_; }
    const CpuConfig &config() const { return config_; }

    /** Cycle breakdown of the last run() (all zero under HFI_OBS=OFF
        or after runReference(), which has no skips to attribute). */
    const PipelineProfile &profile() const { return profile_; }

  private:
    struct StoreEntry
    {
        std::uint64_t seq = 0;
        std::uint64_t addr = 0;
        std::uint64_t value = 0;
        std::uint8_t width = 0;
    };

    /** "No ROB slot": the end of a resolve list. */
    static constexpr std::uint32_t kNoSlot = ~0u;

    /** What dispatching one entry overwrote; see undo(). */
    struct UndoRecord
    {
        std::uint64_t pc = 0;
        std::uint64_t value = 0; ///< old regs[dest]
        std::uint64_t ready = 0; ///< old regReadyAt[dest]
        std::uint16_t poison = 0;
        std::uint8_t dest = 0;
        bool wholeState = false; ///< restore wholeStates_[slot] instead
    };

    /** One in-flight instruction. */
    struct RobEntry
    {
        const Inst *inst = nullptr;
        std::uint64_t pc = 0;
        std::uint64_t seq = 0;
        std::uint64_t predictedNext = 0;
        std::uint64_t completeCycle = 0;
        ExecInfo info{};
        UndoRecord undo{};
        /** Neighbours (ROB slots) in the resolve list of completeCycle;
            meaningful only while the entry is unresolved. */
        std::uint32_t resolveNext = kNoSlot;
        std::uint32_t resolvePrev = kNoSlot;
        bool mispredicted = false;
        bool resolved = false;
        bool isLoad = false;
        bool isStore = false;
        bool condBranch = false;
    };

    /**
     * Memory view that buffers stores in the store queue. Non-virtual:
     * dispatch instantiates FunctionalCore::executeOn<SpecMemView>
     * directly, so the whole instruction dispatch inlines.
     */
    class SpecMemView
    {
      public:
        SpecMemView(Pipeline &pipe, std::uint64_t seq)
            : pipe(pipe), seq(seq)
        {
        }

        std::uint64_t load(std::uint64_t addr, unsigned width);
        void store(std::uint64_t addr, std::uint64_t value, unsigned width);

      private:
        Pipeline &pipe;
        std::uint64_t seq;
    };

    struct FetchedInst
    {
        const Inst *inst = nullptr;
        std::uint32_t index = 0; ///< instruction index (µop table key)
        std::uint64_t pc = 0;
        std::uint64_t predictedNext = 0;
    };

    /** One slot of the cycle-indexed issue-counter ring. */
    struct IssueSlot
    {
        std::uint64_t cycle = ~0ull;
        unsigned count = 0;
    };

    /**
     * One slot of the completion-cycle calendar: the unresolved ROB
     * entries completing at one cycle, linked through their ROB slots
     * in dispatch (= program) order.
     */
    struct ResolveList
    {
        std::uint32_t head = kNoSlot;
        std::uint32_t tail = kNoSlot;
    };

    /** Retire up to commitWidth entries; true at a halt or a fault. */
    bool commitStage();
    void resolveStage();
    void dispatchStage();
    void fetchStage();

    template <bool EventDriven>
    PipelineResult runLoop(std::uint64_t max_cycles);

    /** True when no stage can change any modeled state this cycle. */
    bool quietCycle();

    /** Dispatch gates on the decode-queue head: a serializing µop waits
        for an empty ROB, a load or a store for a free LQ or SQ slot. */
    bool
    dispatchBlocked(const Inst &inst, const MicroOp &uop) const
    {
        return (willSerialize(inst) && robCount_ != 0) ||
               ((uop.flags & MicroOp::kIsLoad) != 0 &&
                loadsInFlight >= config_.lqSize) ||
               ((uop.flags & MicroOp::kIsStore) != 0 &&
                storeCount_ >= config_.sqSize);
    }

    /** Next cycle at which some stage becomes able to act. Valid only
     *  when quiet and not frozen.
     *  @p source_out (may be null) receives which wake-up source won
     *  the min: 0 commit-eligible front, 1 next resolution, 2 fetch-
     *  stall expiry, 3 none. */
    std::uint64_t nextEventCycle(unsigned *source_out = nullptr) const;

    /** Would dispatching @p inst on specState serialize? Its own
     *  HfiState transition's verdict, as executeOn will see it. */
    bool willSerialize(const Inst &inst) const;

    /** Earliest issue cycle respecting slots + a unit of @p uop's kind. */
    std::uint64_t allocateIssue(std::uint64_t earliest, const MicroOp &uop,
                                unsigned *unit_latency);

    // issueBump, fileResolve, linkResolve, undo and dispatchBlocked run
    // per µop: they are defined in the class so that GCC inlines them.
    void
    issueBump(std::uint64_t t)
    {
        if (t - cycle >= issueRing_.size())
            growIssueRing(t);
        IssueSlot &s = issueRing_[t & issueMask_];
        if (s.cycle == t) {
            ++s.count;
        } else {
            s.cycle = t;
            s.count = 1;
        }
    }
    void growIssueRing(std::uint64_t t);

    void squashAfter(std::size_t rob_index);

    /** Roll @p state back over ROB slot @p slot's dispatch. */
    void
    undo(std::size_t slot, ArchState &state) const
    {
        const UndoRecord &u = rob_[slot].undo;
        if (u.wholeState)
            state = wholeStates_[slot];
        state.pc = u.pc;
        state.regs[u.dest] = u.value;
    }

    /** File ROB slot @p slot for resolution at its completeCycle. */
    void
    fileResolve(std::size_t slot)
    {
        if (rob_[slot].completeCycle - cycle >= resolveLists_.size())
            growResolveRing(rob_[slot].completeCycle);
        linkResolve(slot);
    }
    /** Append @p slot to its list (the ring already spans it). */
    void
    linkResolve(std::size_t slot)
    {
        RobEntry &e = rob_[slot];
        ResolveList &l = resolveLists_[e.completeCycle & resolveMask_];
        // A list holds one cycle's entries, in program order.
        assert(l.tail == kNoSlot ||
               (rob_[l.tail].completeCycle == e.completeCycle &&
                rob_[l.tail].seq < e.seq));
        e.resolveNext = kNoSlot;
        e.resolvePrev = l.tail;
        if (l.tail == kNoSlot)
            l.head = static_cast<std::uint32_t>(slot);
        else
            rob_[l.tail].resolveNext = static_cast<std::uint32_t>(slot);
        l.tail = static_cast<std::uint32_t>(slot);
    }
    void growResolveRing(std::uint64_t at);

    /** True iff an entry resolves this cycle. */
    bool hasDueResolve() const
    {
        return resolveLists_[cycle & resolveMask_].head != kNoSlot;
    }

    /** Is physical ROB slot @p slot currently occupied? */
    bool robSlotLive(std::size_t slot) const
    {
        return ((slot - robHead_) & robMask_) < robCount_;
    }

    /** Cached fetchCoversProgram verdict (recomputed when dirty). */
    bool fetchCheckElidable();

    // Ring-buffer accessors: logical position i -> physical slot.
    // Capacities are powers of two >= the configured depths; occupancy
    // is tracked by explicit counts, so full == capacity is fine.
    std::size_t robSlot(std::size_t i) const
    {
        return (robHead_ + i) & robMask_;
    }
    RobEntry &robAt(std::size_t i) { return rob_[robSlot(i)]; }
    const RobEntry &robAt(std::size_t i) const { return rob_[robSlot(i)]; }
    StoreEntry &storeAt(std::size_t i)
    {
        return stores_[(storeHead_ + i) & storeMask_];
    }
    const StoreEntry &storeAt(std::size_t i) const
    {
        return stores_[(storeHead_ + i) & storeMask_];
    }
    FetchedInst &decodeAt(std::size_t i)
    {
        return decode_[(decodeHead_ + i) & decodeMask_];
    }
    const FetchedInst &decodeAt(std::size_t i) const
    {
        return decode_[(decodeHead_ + i) & decodeMask_];
    }
    void popDecodeFront()
    {
        decodeHead_ = (decodeHead_ + 1) & decodeMask_;
        --decodeCount_;
    }

    Program program;
    CpuConfig config_;

    SimMemory mem;
    ArchState archState;  ///< committed state, set at every stop
    ArchState specState;  ///< dispatch-time speculative state

    Cache icache_;
    Cache dcache_;
    Cache dtb_;
    BranchPredictor predictor_;

    // Fixed ring buffers (replacing std::deque/std::vector churn).
    std::vector<FetchedInst> decode_;
    std::size_t decodeHead_ = 0;
    std::size_t decodeCount_ = 0;
    std::size_t decodeMask_ = 0;

    std::vector<RobEntry> rob_;
    std::vector<ArchState> wholeStates_; ///< by ROB slot; see UndoRecord
    std::size_t robHead_ = 0;
    std::size_t robCount_ = 0;
    std::size_t robMask_ = 0;

    std::vector<StoreEntry> stores_; ///< uncommitted stores, seq order
    std::size_t storeHead_ = 0;
    std::size_t storeCount_ = 0;
    std::size_t storeMask_ = 0;

    unsigned loadsInFlight = 0;

    std::array<std::uint64_t, kNumRegs> regReadyAt{};
    /**
     * Poison bits (one per register): set when a register's producer
     * was an HFI-faulting access (the faulting NOP of §4.1). Dependent
     * memory operations are denied their cache access — no
     * secret-derived address ever reaches the dcache, which is the
     * no-propagation invariant the Spectre tests assert.
     */
    std::uint16_t poisonMask_ = 0;

    std::vector<std::uint64_t> aluFree, mulFree, memFree;
    /**
     * Cycle-indexed ring of issue counters (replaces the old
     * unordered_map + periodic GC sweep). A slot is live iff its stored
     * cycle matches the probed one; stale slots read as zero. Live
     * cycles all lie in (cycle, cycle + ring size) — issueBump grows
     * the ring if a bump would land outside that window — so two live
     * cycles can never alias.
     */
    std::vector<IssueSlot> issueRing_;
    std::uint64_t issueMask_ = 0;

    /**
     * Calendar queue over completion cycles: dispatch appends each
     * entry to the intrusive list of its completion cycle, the resolve
     * stage pops exactly the current cycle's list, and squashAfter
     * unlinks what it squashes. Invariant: every list holds exactly the
     * live, unresolved entries completing at its cycle, all of which
     * lie in [cycle, cycle + ring size) — fileResolve grows the ring
     * before an entry would land outside — in program order, the order
     * a full ROB scan would visit due entries in.
     */
    std::vector<ResolveList> resolveLists_;
    std::uint64_t resolveMask_ = 0;

    /** Cached fetchCoversProgram verdict + its dirty bit (set after any
     *  dispatch that can touch the bank, and by recovery). */
    bool fetchCheckUniform_ = false;
    bool fetchCheckDirty_ = true;

    std::uint64_t cycle = 0;
    std::uint64_t seqCounter = 0;
    std::uint64_t fetchPc = 0;
    /** Sequential hint for Program::fetchIndex; self-corrects on
     *  redirects. */
    std::size_t fetchHint_ = 0;
    std::uint64_t fetchStallUntil = 0;
    bool fetchHalted = false;
    bool serializePending = false;
    std::uint64_t serializeSeq = 0;

    PipelineResult result_; ///< halt/fault outcome; cycles and count at stop
    PipelineStats stats_;
    PipelineProfile profile_;
};

} // namespace hfi::sim

#endif // HFI_SIM_PIPELINE_H
