#include "sim/pipeline.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace hfi::sim
{

std::uint64_t
Pipeline::SpecMemView::load(std::uint64_t addr, unsigned width)
{
    // Committed memory, then forward bytes from older in-flight stores.
    // The walk is youngest-first with a filled-byte mask (first writer
    // wins), equivalent to the old oldest-to-youngest overwrite loop
    // but able to stop as soon as every byte is covered.
    std::uint64_t value = pipe.mem.read(addr, width);
    std::size_t k = pipe.storeCount_;
    while (k > 0 && pipe.storeAt(k - 1).seq >= seq)
        --k; // stores younger than the load cannot forward to it
    if (k == 0)
        return value;
    const unsigned all = width >= 8 ? 0xffu : ((1u << width) - 1u);
    unsigned filled = 0;
    while (k-- > 0) {
        const StoreEntry &s = pipe.storeAt(k);
        // Two byte ranges overlap iff one starts inside the other
        // (modulo 2^64, so a range that wraps is no special case). Most
        // stores miss the load: skip them before the byte loop, which
        // decides the forwarded bytes exactly as before.
        if (addr - s.addr >= s.width && s.addr - addr >= width)
            continue;
        for (unsigned i = 0; i < width; ++i) {
            const std::uint64_t byte_addr = addr + i;
            if ((filled & (1u << i)) == 0 && byte_addr >= s.addr &&
                byte_addr < s.addr + s.width) {
                const auto byte = static_cast<std::uint64_t>(
                    (s.value >> (8 * (byte_addr - s.addr))) & 0xff);
                value = (value & ~(0xffULL << (8 * i))) | (byte << (8 * i));
                filled |= 1u << i;
            }
        }
        if (filled == all)
            break;
    }
    return value;
}

void
Pipeline::SpecMemView::store(std::uint64_t addr, std::uint64_t value,
                             unsigned width)
{
    // Capacity was enforced at dispatch (the sqSize gate).
    pipe.storeAt(pipe.storeCount_++) = {seq, addr, value,
                                        static_cast<std::uint8_t>(width)};
}

Pipeline::Pipeline(Program program, CpuConfig config)
    : program(std::move(program)), config_(config), icache_(config.icache),
      dcache_(config.dcache), dtb_(kDtbConfig),
      aluFree(config.intAluCount, 0), mulFree(config.intMultCount, 0),
      memFree(config.memPortCount, 0)
{
    // A zero count stalls the core or leaves a µop no unit, as does a
    // fetchBytes below an instruction's length. Latencies may be 0.
    unsigned longest = 1;
    for (const Inst &inst : this->program.instructions())
        longest = std::max<unsigned>(longest, inst.length);
    const std::pair<unsigned, const char *> counts[] = {
        {config.fetchBytes / longest, "fetchBytes"},
        {config.decodeWidth, "decodeWidth"},
        {config.issueWidth, "issueWidth"},
        {config.commitWidth, "commitWidth"},
        {config.robSize, "robSize"}, {config.lqSize, "lqSize"},
        {config.sqSize, "sqSize"},
        {config.decodeQueueDepth, "decodeQueueDepth"},
        {config.intAluCount, "intAluCount"},
        {config.intMultCount, "intMultCount"},
        {config.memPortCount, "memPortCount"}};
    for (const auto &[value, name] : counts) {
        if (value == 0)
            throw std::invalid_argument(std::string("CpuConfig::") + name +
                                        " is too small");
    }

    decode_.resize(std::bit_ceil(std::size_t{config_.decodeQueueDepth}));
    decodeMask_ = decode_.size() - 1;

    rob_.resize(std::bit_ceil(std::size_t{config_.robSize}));
    wholeStates_.resize(rob_.size());
    robMask_ = rob_.size() - 1;

    stores_.resize(std::bit_ceil(std::size_t{config_.sqSize}));
    storeMask_ = stores_.size() - 1;

    issueRing_.resize(std::size_t{1} << 10);
    issueMask_ = issueRing_.size() - 1;

    resolveLists_.resize(std::size_t{1} << 10);
    resolveMask_ = resolveLists_.size() - 1;

    archState.pc = this->program.base();
}

bool
Pipeline::willSerialize(const Inst &inst) const
{
    switch (inst.op) {
      case Opcode::Cpuid:
        return true;
      case Opcode::Syscall:
      case Opcode::HfiEnter:
      case Opcode::HfiExit:
      case Opcode::HfiSetRegion:
      case Opcode::HfiClearRegion: {
        // specState is the state this instruction will execute on, so
        // the verdict is its own transition's, run on a scratch copy.
        core::HfiState scratch = specState.hfi;
        return detail::hfiTransition(inst, specState.regs, scratch)
            .serializes;
      }
      default:
        return false;
    }
}

void
Pipeline::growIssueRing(std::uint64_t t)
{
    std::size_t size = issueRing_.size();
    while (t - cycle >= size)
        size *= 2;
    std::vector<IssueSlot> grown(size);
    for (const IssueSlot &s : issueRing_) {
        if (s.count != 0 && s.cycle != ~0ull && s.cycle > cycle)
            grown[s.cycle & (size - 1)] = s; // still-live slot
    }
    issueRing_ = std::move(grown);
    issueMask_ = size - 1;
}

std::uint64_t
Pipeline::allocateIssue(std::uint64_t earliest, const MicroOp &uop,
                        unsigned *unit_latency)
{
    std::vector<std::uint64_t> *units = &aluFree;
    unsigned latency = config_.aluLatency;
    std::uint64_t occupancy = 1; // fully pipelined by default
    switch (uop.unit) {
      case MicroOp::kUnitMul:
        units = &mulFree;
        latency = config_.mulLatency;
        break;
      case MicroOp::kUnitDiv:
        units = &mulFree;
        latency = config_.divLatency;
        occupancy = config_.divLatency; // unpipelined divider
        break;
      case MicroOp::kUnitMem:
        units = &memFree;
        latency = 1; // AGU cycle; cache latency added by the caller
        break;
      default:
        break;
    }

    // The unit that frees first (the first of a tie) is the one the
    // µop takes: no unit frees or books while the issue cycle is
    // searched, so the search starts where both a unit is free and the
    // operands are ready, and only the issue width can push it later.
    std::uint64_t *best = units->data();
    for (std::uint64_t &free_at : *units) {
        if (free_at < *best)
            best = &free_at;
    }
    std::uint64_t t = std::max(earliest, *best);
    for (;;) {
        const IssueSlot &s = issueRing_[t & issueMask_];
        if (s.cycle != t || s.count < config_.issueWidth)
            break;
        ++t;
    }
    *best = t + occupancy;
    issueBump(t);
    *unit_latency = latency;
    return t;
}

void
Pipeline::growResolveRing(std::uint64_t at)
{
    std::size_t size = resolveLists_.size();
    while (at - cycle >= size)
        size *= 2;
    resolveLists_.assign(size, ResolveList{});
    resolveMask_ = size - 1;
    // Refile every unresolved entry, oldest first: each list comes out
    // in program order again.
    for (std::size_t i = 0; i < robCount_; ++i) {
        if (!robAt(i).resolved)
            linkResolve(robSlot(i));
    }
}

bool
Pipeline::fetchCheckElidable()
{
    if (fetchCheckDirty_) {
        fetchCheckUniform_ = fetchCoversProgram(specState.hfi.bank, program);
        fetchCheckDirty_ = false;
    }
    return fetchCheckUniform_;
}

void
Pipeline::fetchStage()
{
    if (fetchHalted || cycle < fetchStallUntil)
        return;

    const MicroOp *uops = program.microOps();
    unsigned budget = config_.fetchBytes;
    while (budget > 0 && decodeCount_ < config_.decodeQueueDepth) {
        const std::size_t index = program.fetchIndex(fetchPc, &fetchHint_);
        if (index == Program::kNoInst) {
            fetchHalted = true;
            return;
        }
        const Inst *inst = &program.instructions()[index];
        if (inst->length > budget)
            return;

        const CacheAccess ic = icache_.access(fetchPc);
        if (!ic.hit) {
            fetchStallUntil = cycle + ic.latency;
            return;
        }
        budget -= inst->length;
        const MicroOp &uop = uops[index];
        // hmov's prefix is a length-changing prefix to the predecoder:
        // it costs extra predecode throughput (the Skylake LCP stall),
        // modeled as additional consumed fetch bytes.
        if (uop.flags & MicroOp::kLcp)
            budget -= std::min<unsigned>(budget, 3);

        // Predict the next fetch address.
        std::uint64_t next = fetchPc + inst->length;
        switch (uop.ctrl) {
          case MicroOp::kCtrlCond:
            if (predictor_.predictDirection(fetchPc))
                next = inst->target;
            break;
          case MicroOp::kCtrlJmp:
            next = inst->target;
            break;
          case MicroOp::kCtrlCall:
            predictor_.pushReturn(fetchPc + inst->length);
            next = inst->target;
            break;
          case MicroOp::kCtrlRet:
            next = predictor_.popReturn(); // 0 = unpredictable
            break;
          default:
            break;
        }

        decodeAt(decodeCount_++) = {inst, static_cast<std::uint32_t>(index),
                                    fetchPc, next};
        ++stats_.fetched;
        fetchPc = next;
        if (next == 0) {
            // Unpredictable target: fetch stalls until resolution
            // redirects us.
            fetchHalted = true;
            return;
        }
    }
}

void
Pipeline::dispatchStage()
{
    const MicroOp *uops = program.microOps();
    unsigned budget = config_.decodeWidth;
    while (budget > 0 && decodeCount_ != 0 && !serializePending &&
           robCount_ < config_.robSize) {
        const FetchedInst f = decodeAt(0);
        const Inst &inst = *f.inst;
        const MicroOp &uop = uops[f.index];
        const std::size_t slot = robSlot(robCount_);
        RobEntry &e = rob_[slot];
        const UndoRecord undo{specState.pc, specState.regs[uop.dest],
                              regReadyAt[uop.dest], poisonMask_, uop.dest,
                              (uop.flags & MicroOp::kWritesState) != 0};

        // Decode-stage code-region check (§4.1): out-of-region
        // instructions become faulting NOPs and never execute,
        // speculatively or otherwise. While the current bank provably
        // passes the check for every program address, the per-
        // instruction check is elided (same predicate the functional
        // core's interpreter uses).
        if (!fetchCheckElidable()) {
            const core::CheckResult fetch_check =
                core::AccessChecker::checkFetch(specState.hfi.bank, f.pc);
            if (!fetch_check.ok) {
                e = RobEntry{};
                e.undo = undo;
                e.undo.wholeState = false; // it never executes
                e.inst = f.inst;
                e.pc = f.pc;
                e.seq = seqCounter++;
                e.predictedNext = f.predictedNext;
                e.info.faulted = true;
                e.info.faultReason = fetch_check.reason;
                e.info.nextPc = f.pc;
                e.completeCycle = cycle + 1;
                fileResolve(slot);
                ++robCount_;
                popDecodeFront();
                --budget;
                ++stats_.dispatched;
                continue;
            }
        }

        if (dispatchBlocked(inst, uop))
            break;
        const bool is_load = (uop.flags & MicroOp::kIsLoad) != 0;
        const bool is_store = (uop.flags & MicroOp::kIsStore) != 0;

        // Poison gating (§4.1): if any input register descends from a
        // faulted access, this instruction will never actually issue,
        // so its side effects (cache fills in particular) must not
        // happen and its destination stays poisoned.
        const bool inputs_poisoned = (poisonMask_ & uop.taintMask) != 0;

        // The entry is written field by field, in place: its slot is
        // free, and SpecMemView reads only the store queue.
        const std::uint64_t seq = seqCounter++;
        e.undo = undo;
        if (undo.wholeState) {
            // Execution may change the HFI bank: keep the whole state
            // to undo, and re-prove the fetch-check elision.
            wholeStates_[slot] = specState;
            fetchCheckDirty_ = true;
        }
        SpecMemView view(*this, seq);
        e.info = FunctionalCore::executeOn(inst, f.pc, specState, view);
        const ExecInfo &info = e.info;
        e.inst = f.inst;
        e.pc = f.pc;
        e.seq = seq;
        e.predictedNext = f.predictedNext;
        e.resolved = false;
        e.isLoad = is_load;
        e.isStore = is_store;
        e.condBranch = uop.ctrl == MicroOp::kCtrlCond;
        if (is_load)
            ++loadsInFlight;

        // Source-operand readiness from the µop's scheduling mask.
        std::uint64_t src_ready = cycle + 1;
        for (unsigned m = uop.readyMask; m != 0; m &= m - 1) {
            const unsigned reg = static_cast<unsigned>(std::countr_zero(m));
            src_ready = std::max(src_ready, regReadyAt[reg]);
        }

        unsigned unit_latency = 1;
        const std::uint64_t issue_at =
            allocateIssue(src_ready, uop, &unit_latency);
        std::uint64_t latency = unit_latency;

        if (info.isMem && !info.faulted && !inputs_poisoned) {
            // dtb lookup and HFI check run in parallel (§4.2); the
            // dcache access proceeds — speculatively — because the
            // check passed.
            const CacheAccess t = dtb_.access(info.memAddr);
            if (is_load) {
                const CacheAccess c = dcache_.access(info.memAddr);
                latency = t.latency + c.latency;
            } else {
                latency = std::max(1u, t.latency);
            }
            if (specState.hfi.bank.enabled)
                ++stats_.hfiDataChecks;
        } else if (info.isMem && inputs_poisoned && !info.faulted) {
            // The address descends from faulted data: the access never
            // issues, so neither the dcache nor the dtb observes it.
            latency = 1;
        } else if (info.isMem && info.faulted) {
            // §4.1: the failed check blocks the *data-cache* fill, but
            // the dtb may still observe the address; no data moves.
            if (info.memAddr)
                dtb_.access(info.memAddr);
            latency = 1;
        }

        // Un-lamination: a load/store that combines an index register
        // with a 32-bit displacement (the emulation's fixed-base form,
        // appendix A.2) splits into an address-generation µop plus the
        // memory µop — an extra issue slot and a periodic replay cycle.
        // hmov does not pay this: the region base comes from the region
        // register at register-read (§4.2).
        if (uop.flags & MicroOp::kUnlaminated) {
            issueBump(issue_at); // the companion AGU µop's slot
            latency += (seq & 3) == 0 ? 1 : 0; // periodic replay cycle
        }

        if (info.isFlush)
            dcache_.flush(info.memAddr);

        if (info.serializes) {
            latency += config_.serializeFlushCycles;
            serializePending = true;
            serializeSeq = seq;
            ++stats_.serializations;
        }

        e.completeCycle = issue_at + std::max<std::uint64_t>(latency, 1);

        // Destination readiness.
        if (!info.faulted && (uop.flags & MicroOp::kWritesRd)) {
            regReadyAt[inst.rd] = e.completeCycle;
            // Poison propagates through dataflow; a clean producer
            // clears it.
            if (inputs_poisoned)
                poisonMask_ |= static_cast<std::uint16_t>(1u << inst.rd);
            else
                poisonMask_ &= static_cast<std::uint16_t>(~(1u << inst.rd));
        }
        if (is_load && info.faulted)
            poisonMask_ |= static_cast<std::uint16_t>(1u << inst.rd);
        if (uop.ctrl == MicroOp::kCtrlCall)
            regReadyAt[kLinkReg] = e.completeCycle;
        if (inst.op == Opcode::Cpuid) {
            regReadyAt[12] = e.completeCycle;
            regReadyAt[13] = e.completeCycle;
        }

        e.mispredicted = !info.faulted && info.nextPc != f.predictedNext;
        fileResolve(slot);
        ++robCount_;
        popDecodeFront();

        // hmov's prefix byte behaves like a length-changing prefix in
        // the predecoder: it occupies an extra decode slot (the Skylake
        // LCP effect) — the µ-architectural cost behind §6.1's gobmk
        // observation, and one the compiler emulation cannot mimic.
        if (uop.flags & MicroOp::kLcp)
            budget -= budget > 1 ? 1 : 0;
        --budget;
        ++stats_.dispatched;
    }
}

void
Pipeline::squashAfter(std::size_t rob_index)
{
    const std::uint64_t boundary_seq = robAt(rob_index).seq;
    // Youngest first: a squashed unresolved entry is then the tail of
    // its resolve list, since a list is in program order and everything
    // younger has already left it.
    for (std::size_t i = robCount_; i-- > rob_index + 1;) {
        const std::size_t slot = robSlot(i);
        const RobEntry &e = rob_[slot];
        // A serializing µop enters an empty ROB and blocks dispatch
        // until it commits: cpuid's r12/r13 ready times need no undo.
        assert(!e.info.serializes);
        undo(slot, specState);
        regReadyAt[e.undo.dest] = e.undo.ready;
        poisonMask_ = e.undo.poison;
        ++stats_.squashed;
        if (e.info.faulted)
            ++stats_.hfiFaultsSuppressed;
        if (e.isLoad)
            --loadsInFlight;
        if (!e.resolved) {
            ResolveList &l = resolveLists_[e.completeCycle & resolveMask_];
            assert(l.tail == slot);
            l.tail = e.resolvePrev;
            if (l.tail == kNoSlot)
                l.head = kNoSlot;
            else
                rob_[l.tail].resolveNext = kNoSlot;
        }
    }
    robCount_ = rob_index + 1;
    while (storeCount_ != 0 && storeAt(storeCount_ - 1).seq > boundary_seq)
        --storeCount_;
    if (serializePending && serializeSeq > boundary_seq)
        serializePending = false;
}

void
Pipeline::resolveStage()
{
    // Pop this cycle's list, oldest first: exactly the unresolved
    // entries completing now, in program order. A mispredict squashes
    // (and so unlinks) the rest of the list, which are all younger.
    ResolveList &l = resolveLists_[cycle & resolveMask_];
    while (l.head != kNoSlot) {
        const std::uint32_t slot = l.head;
        RobEntry &e = rob_[slot];
        assert(robSlotLive(slot) && !e.resolved &&
               e.completeCycle == cycle);
        l.head = e.resolveNext;
        if (l.head == kNoSlot)
            l.tail = kNoSlot;
        else
            rob_[l.head].resolvePrev = kNoSlot;
        e.resolved = true;

        if (e.condBranch && !e.info.faulted)
            predictor_.updateDirection(e.pc, e.info.branchTaken);

        if (e.mispredicted) {
            ++stats_.mispredicts;
            // Undo the wrong path and redirect fetch down the right one.
            squashAfter((slot - robHead_) & robMask_);
            assert(specState.pc == e.info.nextPc);
            fetchCheckDirty_ = true;
            decodeHead_ = 0;
            decodeCount_ = 0;
            fetchPc = e.info.nextPc;
            fetchStallUntil = cycle + config_.redirectPenalty;
            fetchHalted = false;
            return;
        }
    }
}

bool
Pipeline::commitStage()
{
    unsigned budget = config_.commitWidth;
    while (budget > 0 && robCount_ != 0) {
        RobEntry &e = robAt(0);
        if (e.completeCycle >= cycle || !e.resolved)
            break;

        if (e.info.faulted) {
            // The stop undoes it and every younger entry, then traps.
            result_.faulted = true;
            result_.faultReason = e.info.faultReason;
            result_.faultPc = e.pc;
            return true;
        }

        if (e.isStore && storeCount_ != 0 && storeAt(0).seq == e.seq) {
            const StoreEntry &s = storeAt(0);
            mem.write(s.addr, s.value, s.width);
            dcache_.access(s.addr); // write-allocate at commit
            storeHead_ = (storeHead_ + 1) & storeMask_;
            --storeCount_;
        }
        if (e.isLoad)
            --loadsInFlight;

        if (serializePending && serializeSeq == e.seq)
            serializePending = false;

        robHead_ = (robHead_ + 1) & robMask_;
        --robCount_;
        ++stats_.committed;
        --budget;

        if (e.info.halted) {
            result_.halted = true;
            return true;
        }
    }
    return false;
}


bool
Pipeline::quietCycle()
{
    // Commit would retire the front entry?
    if (robCount_ != 0) {
        const RobEntry &front = robAt(0);
        if (front.resolved && front.completeCycle < cycle)
            return false;
    }
    // The resolve stage would resolve something?
    if (hasDueResolve())
        return false;
    // Dispatch would move the decode-queue head?
    if (decodeCount_ != 0 && !serializePending &&
        robCount_ < config_.robSize) {
        if (!fetchCheckElidable())
            return false; // per-address check mode: treat as active
        const FetchedInst &f = decodeAt(0);
        if (!dispatchBlocked(*f.inst, program.microOps()[f.index]))
            return false;
    }
    // Fetch would deliver bytes?
    if (!fetchHalted && cycle >= fetchStallUntil &&
        decodeCount_ < config_.decodeQueueDepth)
        return false;
    return true;
}

std::uint64_t
Pipeline::nextEventCycle(unsigned *source_out) const
{
    // In a quiet cycle, dispatch is blocked on ROB-side resources
    // (serialize drain, full ROB/LQ/SQ) and fetch on the stall timer or
    // a full decode queue — every unblocking transition is driven by a
    // commit or a resolution, so the ROB events plus the stall expiry
    // cover all wake-ups. Attribution (which source won the min, ties
    // to the earliest-checked) falls out of the same comparison chain
    // and feeds the per-kernel cycle-breakdown profile.
    std::uint64_t next = UINT64_MAX;
    unsigned source = 3;
    if (robCount_ != 0) {
        const RobEntry &front = robAt(0);
        if (front.resolved) {
            next = front.completeCycle + 1; // commit-eligible
            source = 0;
        }
        // The next resolution: the first non-empty calendar list. This
        // cycle's is empty (the cycle is quiet), and every list lies
        // within one ring of it.
        const std::uint64_t end =
            std::min<std::uint64_t>(next, cycle + resolveLists_.size());
        for (std::uint64_t t = cycle + 1; t < end; ++t) {
            const ResolveList &l = resolveLists_[t & resolveMask_];
            if (l.head != kNoSlot) {
                assert(rob_[l.head].completeCycle == t);
                next = t;
                source = 1;
                break;
            }
        }
    }
    if (!fetchHalted && fetchStallUntil > cycle &&
        decodeCount_ < config_.decodeQueueDepth && fetchStallUntil < next) {
        next = fetchStallUntil;
        source = 2;
    }
    if (source_out)
        *source_out = source;
    return next;
}

template <bool EventDriven>
PipelineResult
Pipeline::runLoop(std::uint64_t max_cycles)
{
    if (cycle == 0) {
        // The first run starts the machine; a later one resumes it.
        specState = archState;
        fetchPc = archState.pc;
    }
    HFI_OBS_STMT(profile_ = PipelineProfile{});

    // Run to a halt, a fault, the cycle budget, or a frozen machine:
    // fetch ran off the program with nothing left in flight.
    while (!result_.halted && !result_.faulted && cycle < max_cycles &&
           !(fetchHalted && decodeCount_ == 0 && robCount_ == 0)) {
        if constexpr (EventDriven) {
            if (quietCycle()) {
                unsigned source = 3;
                const std::uint64_t next = nextEventCycle(&source);
                assert(next != UINT64_MAX); // only a frozen machine
                // Every skipped cycle is a proven no-op for all four
                // stages; land exactly on the next active one (clamped
                // so a distant event still honours max_cycles).
                const std::uint64_t landing = std::min(next, max_cycles);
                HFI_OBS_STMT(profile_.skippedCycles += landing - cycle;
                             profile_.skipsToCommit += source == 0;
                             profile_.skipsToResolve += source == 1;
                             profile_.skipsToFetch += source == 2);
                cycle = landing;
                continue;
            }
        }
        if constexpr (EventDriven)
            HFI_OBS_STMT(++profile_.activeCycles);
        if (commitStage())
            break;
        resolveStage();
        dispatchStage();
        fetchStage();
        ++cycle;
    }

    // Every stop leaves the committed state: specState with each
    // in-flight entry undone, youngest first; a fault then traps.
    archState = specState;
    for (std::size_t i = robCount_; i-- > 0;)
        undo(robSlot(i), archState);
    if (result_.faulted)
        archState.hfi.trap(result_.faultReason);
    result_.cycles = cycle;
    result_.instructions = stats_.committed;
    return result_;
}

PipelineResult
Pipeline::run(std::uint64_t max_cycles)
{
    return runLoop<true>(max_cycles);
}

PipelineResult
Pipeline::runReference(std::uint64_t max_cycles)
{
    return runLoop<false>(max_cycles);
}

} // namespace hfi::sim
