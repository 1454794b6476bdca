#include "sim/functional.h"

namespace hfi::sim
{

/**
 * With HFI off the check passes trivially. With HFI on, each code slot
 * matches an aligned power-of-two block; walking the slots in
 * first-match order, a slot whose block contains the whole program
 * decides every fetch at once (pass iff permExec — and on !permExec we
 * return false so the generic loop delivers the fault), a slot whose
 * block is disjoint from the program decides none, and a slot that
 * partially overlaps means different addresses see different verdicts,
 * so no elision. The predicate is O(code slots), so callers can afford
 * to re-prove it after every bank-touching instruction.
 */
bool
fetchCoversProgram(const core::HfiRegisterFile &bank, const Program &prog)
{
    if (!bank.enabled)
        return true;
    const std::uint64_t lo = prog.base();
    const std::uint64_t hi = prog.end() - 1;
    for (unsigned n = core::kFirstCodeRegion;
         n < core::kFirstImplicitDataRegion; ++n) {
        const core::FlatRegionSlot &s = bank.flat(n);
        if (s.kind != core::RegionKind::Code)
            continue;
        const bool lo_in = (lo & s.prefixMask) == s.base;
        const bool hi_in = (hi & s.prefixMask) == s.base;
        if (lo_in && hi_in)
            return s.permExec;
        const std::uint64_t block_last = s.base | ~s.prefixMask;
        if (hi < s.base || lo > block_last)
            continue; // block disjoint from the program: never matches
        return false; // partial overlap: mixed verdicts
    }
    return false; // nothing matches: every fetch faults (generic loop)
}

std::uint64_t
FunctionalCore::runReference(const Program &program, ArchState &state,
                             SimMemory &memory, std::uint64_t max_steps)
{
    DirectMem view{memory};
    std::uint64_t steps = 0;
    // Sequential-fetch hint: straight-line execution resolves each pc
    // with one compare instead of an address-table lookup.
    std::size_t fetchHint = 0;
    while (steps < max_steps) {
        // Code-region check on the fetch address (§4.1).
        const core::CheckResult fetch_check =
            core::AccessChecker::checkFetch(state.hfi.bank, state.pc);
        if (!fetch_check.ok) {
            state.hfi.trap(fetch_check.reason);
            break;
        }
        const std::size_t index = program.fetchIndex(state.pc, &fetchHint);
        if (index == Program::kNoInst)
            break; // ran off the program: invalid opcode
        const ExecInfo info = FunctionalCore::executeOn(
            program.instructions()[index], state.pc, state, view);
        ++steps;
        if (info.faulted) {
            state.hfi.trap(info.faultReason);
            break;
        }
        if (info.halted)
            break;
    }
    return steps;
}

#if defined(__GNUC__) || defined(__clang__)

std::uint64_t
FunctionalCore::run(const Program &program, ArchState &state,
                    SimMemory &memory, std::uint64_t max_steps)
{
    // Threaded-dispatch interpreter (labels-as-values). The hot opcodes
    // — ALU, load/store, hmov, control flow — have dedicated handlers
    // that track the *instruction index* instead of re-resolving the pc
    // each step, take branches through the Program's predecoded target
    // indices, and skip the per-instruction fetch check while
    // fetchCoversProgram holds. Everything else (HFI instructions,
    // syscalls, cpuid, ...) bails out to a literal reference step that
    // runs executeOn and re-proves the fetch predicate, so all
    // bank-touching semantics live in exactly one place (executeOn).
    //
    // state.pc is materialized from the index on every exit from the
    // fast loop, so the architectural state at each return — and at
    // every executeOn call — is identical to runReference's.
    const void *labels[64];
    for (auto &l : labels)
        l = &&op_slow;
#define HFI_SIM_LABEL(op) labels[static_cast<int>(Opcode::op)] = &&op_##op
    HFI_SIM_LABEL(Add);
    HFI_SIM_LABEL(Sub);
    HFI_SIM_LABEL(Mul);
    HFI_SIM_LABEL(And);
    HFI_SIM_LABEL(Or);
    HFI_SIM_LABEL(Xor);
    HFI_SIM_LABEL(Shl);
    HFI_SIM_LABEL(Shr);
    HFI_SIM_LABEL(Mov);
    HFI_SIM_LABEL(Movi);
    HFI_SIM_LABEL(Load);
    HFI_SIM_LABEL(Store);
    HFI_SIM_LABEL(HmovLoad);
    HFI_SIM_LABEL(HmovStore);
    HFI_SIM_LABEL(Beq);
    HFI_SIM_LABEL(Bne);
    HFI_SIM_LABEL(Blt);
    HFI_SIM_LABEL(Bge);
    HFI_SIM_LABEL(Jmp);
    HFI_SIM_LABEL(Call);
    HFI_SIM_LABEL(Ret);
    HFI_SIM_LABEL(Halt);
    HFI_SIM_LABEL(Nop);
#undef HFI_SIM_LABEL

    DirectMem view{memory};
    const Inst *const insts = program.instructions().data();
    const std::size_t count = program.instructionCount();
    auto &regs = state.regs;
    std::uint64_t steps = 0;
    std::size_t fetchHint = 0; // for the reference steps only
    std::size_t index = 0;
    const Inst *inst = nullptr;

// Dispatch invariants: index < count, checkFetch passes for
// addressOf(index) (by fetchCoversProgram), state.pc is stale and gets
// rewritten from the index on every fast-loop exit.
#define HFI_SIM_DISPATCH                                                     \
    do {                                                                     \
        if (steps >= max_steps) {                                            \
            state.pc = program.addressOf(index);                             \
            return steps;                                                    \
        }                                                                    \
        inst = insts + index;                                                \
        ++steps;                                                             \
        goto *labels[static_cast<int>(inst->op)];                            \
    } while (0)

#define HFI_SIM_NEXT                                                         \
    do {                                                                     \
        if (++index == count) {                                              \
            state.pc = program.end();                                        \
            goto bail;                                                       \
        }                                                                    \
        HFI_SIM_DISPATCH;                                                    \
    } while (0)

#define HFI_SIM_FAULT(the_reason)                                            \
    do {                                                                     \
        state.hfi.trap(the_reason);                                          \
        state.pc = program.addressOf(index);                                 \
        return steps;                                                        \
    } while (0)

    for (;;) {
        // Try to (re-)enter the fast loop at the current pc.
        if (count != 0 && fetchCoversProgram(state.hfi.bank, program)) {
            index = program.indexAt(state.pc);
            if (index != Program::kNoInst)
                HFI_SIM_DISPATCH;
        }

        // Reference step: the literal per-instruction semantics,
        // including the fetch check. Handles everything the fast loop
        // bails on (slow opcodes, pcs outside the program, banks that
        // don't cover it).
    reference_step:
        {
            if (steps >= max_steps)
                return steps;
            const core::CheckResult fetch_check =
                core::AccessChecker::checkFetch(state.hfi.bank, state.pc);
            if (!fetch_check.ok) {
                state.hfi.trap(fetch_check.reason);
                return steps;
            }
            const std::size_t ref = program.fetchIndex(state.pc, &fetchHint);
            if (ref == Program::kNoInst)
                return steps; // ran off the program: invalid opcode
            const ExecInfo info = executeOn(program.instructions()[ref],
                                            state.pc, state, view);
            ++steps;
            if (info.faulted) {
                state.hfi.trap(info.faultReason);
                return steps;
            }
            if (info.halted)
                return steps;
            continue;
        }

    // Each handler computes its result with the detail:: helper that
    // executeOn calls; the constant opcode folds the helper's switch.
#define HFI_SIM_ALU(op)                                                      \
    op_##op:                                                                 \
        regs[inst->rd] = detail::aluResult(Opcode::op, *inst, regs);         \
        HFI_SIM_NEXT
    HFI_SIM_ALU(Add);
    HFI_SIM_ALU(Sub);
    HFI_SIM_ALU(Mul);
    HFI_SIM_ALU(And);
    HFI_SIM_ALU(Or);
    HFI_SIM_ALU(Xor);
    HFI_SIM_ALU(Shl);
    HFI_SIM_ALU(Shr);
    HFI_SIM_ALU(Mov);
    HFI_SIM_ALU(Movi);
#undef HFI_SIM_ALU
    op_Nop:
        HFI_SIM_NEXT;

    op_Load: {
        const std::uint64_t addr = detail::dataAddress(*inst, regs);
        const core::CheckResult check = core::AccessChecker::checkData(
            state.hfi.bank, addr, inst->width, false);
        if (!check.ok)
            HFI_SIM_FAULT(check.reason);
        regs[inst->rd] = view.load(addr, inst->width);
        HFI_SIM_NEXT;
    }
    op_Store: {
        const std::uint64_t addr = detail::dataAddress(*inst, regs);
        const core::CheckResult check = core::AccessChecker::checkData(
            state.hfi.bank, addr, inst->width, true);
        if (!check.ok)
            HFI_SIM_FAULT(check.reason);
        view.store(addr, regs[inst->rd], inst->width);
        HFI_SIM_NEXT;
    }
    op_HmovLoad: {
        if (!state.hfi.bank.enabled)
            goto op_slow; // invalid opcode outside HFI mode
        const core::HmovResult res = core::AccessChecker::checkHmov(
            state.hfi.bank, inst->region, detail::hmovOperands(*inst, regs),
            false);
        if (!res.ok)
            HFI_SIM_FAULT(res.reason);
        regs[inst->rd] = view.load(res.address, inst->width);
        HFI_SIM_NEXT;
    }
    op_HmovStore: {
        if (!state.hfi.bank.enabled)
            goto op_slow;
        const core::HmovResult res = core::AccessChecker::checkHmov(
            state.hfi.bank, inst->region, detail::hmovOperands(*inst, regs),
            true);
        if (!res.ok)
            HFI_SIM_FAULT(res.reason);
        view.store(res.address, regs[inst->rd], inst->width);
        HFI_SIM_NEXT;
    }

#define HFI_SIM_BRANCH(op)                                                   \
    op_##op:                                                                 \
        if (detail::branchTaken(Opcode::op, *inst, regs))                    \
            goto take_branch;                                                \
        HFI_SIM_NEXT
    HFI_SIM_BRANCH(Beq);
    HFI_SIM_BRANCH(Bne);
    HFI_SIM_BRANCH(Blt);
    HFI_SIM_BRANCH(Bge);
#undef HFI_SIM_BRANCH
    op_Jmp:
    take_branch: {
        const std::size_t t = program.targetIndexOf(index);
        if (t == Program::kNoInst) {
            // Target is not an instruction start: leave the fast loop
            // with the architectural pc and let the reference step
            // deliver the fetch fault / invalid opcode.
            state.pc = inst->target;
            goto bail;
        }
        index = t;
        HFI_SIM_DISPATCH;
    }
    op_Call: {
        regs[kLinkReg] = program.addressOf(index) + inst->length;
        const std::size_t t = program.targetIndexOf(index);
        if (t == Program::kNoInst) {
            state.pc = inst->target;
            goto bail;
        }
        index = t;
        HFI_SIM_DISPATCH;
    }
    op_Ret: {
        const std::uint64_t ret_pc = regs[kLinkReg];
        const std::size_t t = program.indexAt(ret_pc);
        if (t == Program::kNoInst) {
            state.pc = ret_pc;
            goto bail;
        }
        index = t;
        HFI_SIM_DISPATCH;
    }

    op_Halt:
        state.pc = program.addressOf(index) + inst->length;
        return steps;

    op_slow:
        // Not a fast opcode (HFI instructions, syscall, cpuid, div,
        // flush, ...) — or an hmov outside HFI mode. Re-run this
        // instruction through the reference step (it was counted at
        // dispatch, so uncount it first), which also re-proves the
        // fetch predicate afterwards: these are exactly the
        // instructions that can change the bank. Jumping straight to
        // the reference step — not the loop top — is what terminates:
        // re-entering the fast path would dispatch the same slow
        // opcode forever.
        --steps;
        state.pc = program.addressOf(index);
        goto reference_step;

    bail:
        continue;
    }

#undef HFI_SIM_DISPATCH
#undef HFI_SIM_NEXT
#undef HFI_SIM_FAULT
}

#else // !(__GNUC__ || __clang__)

std::uint64_t
FunctionalCore::run(const Program &program, ArchState &state,
                    SimMemory &memory, std::uint64_t max_steps)
{
    return runReference(program, state, memory, max_steps);
}

#endif

} // namespace hfi::sim
