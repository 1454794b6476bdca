/**
 * @file
 * Architectural state and single-instruction semantics for the pipeline
 * simulator.
 *
 * The pipeline executes instructions *functionally at dispatch* against
 * a speculative copy of this state (values are always dataflow-correct;
 * timing is modeled separately), which is what lets wrong-path
 * instructions compute with real values — the property the Spectre
 * experiments require. The executor is generic over its memory
 * adapter so the pipeline can interpose its store queue; the
 * FunctionalCore's run loops use DirectMem to run standalone (in-order,
 * no timing) as the reference executor that tests compare the pipeline
 * against.
 */

#ifndef HFI_SIM_FUNCTIONAL_H
#define HFI_SIM_FUNCTIONAL_H

#include <array>
#include <cstdint>

#include "core/checker.h"
#include "core/context.h"
#include "sim/isa.h"
#include "sim/memory.h"
#include "sim/program.h"

namespace hfi::sim
{

/**
 * Architectural (or speculative) machine state. Cheap to copy.
 *
 * A trap's architectural effects (HfiState::trap) apply at retirement:
 * the functional core applies them where it stops, the pipeline when
 * the faulting instruction commits.
 */
struct ArchState
{
    std::array<std::uint64_t, kNumRegs> regs{};
    std::uint64_t pc = 0;
    /** HFI banks, shadow-valid bit and exit-reason MSR. */
    core::HfiState hfi{};
};

/**
 * The run loops' memory adapter: executeOn reads and writes @p m
 * directly. Non-virtual, so the whole instruction dispatch inlines,
 * SimMemory's word fast path included.
 */
struct DirectMem
{
    SimMemory &m;

    std::uint64_t
    load(std::uint64_t addr, unsigned width)
    {
        return m.read(addr, width);
    }

    void
    store(std::uint64_t addr, std::uint64_t value, unsigned width)
    {
        m.write(addr, value, width);
    }
};

/** Everything the timing model needs to know about one execution. */
struct ExecInfo
{
    std::uint64_t nextPc = 0;

    bool isMem = false;
    bool isWrite = false;
    std::uint64_t memAddr = 0; ///< effective address (absolute)
    std::uint8_t memWidth = 0;

    bool isBranch = false;
    bool branchTaken = false;

    /** HFI (or machine) fault raised by this instruction. */
    bool faulted = false;
    core::ExitReason faultReason = core::ExitReason::None;

    /** Instruction requires pipeline serialization (cpuid, serialized
     *  hfi_enter/exit, region updates inside a hybrid sandbox). */
    bool serializes = false;

    bool halted = false;
    bool isSyscall = false;
    bool isFlush = false;
};

/**
 * Implementation helpers for FunctionalCore::executeOn. Each opcode's
 * data semantics are defined here once: executeOn and the threaded
 * handlers of FunctionalCore::run both call these.
 */
namespace detail
{

using RegFile = std::array<std::uint64_t, kNumRegs>;

/**
 * The value ALU opcode @p op (Add through Movi) writes to inst.rd: the
 * second operand is imm when useImm, else rb. @p op is inst.op; a
 * threaded handler passes it as a constant, so the switch folds away.
 */
inline std::uint64_t
aluResult(Opcode op, const Inst &inst, const RegFile &regs)
{
    const std::uint64_t a = regs[inst.ra];
    const std::uint64_t b =
        inst.useImm ? static_cast<std::uint64_t>(inst.imm) : regs[inst.rb];
    switch (op) {
      case Opcode::Add: return a + b;
      case Opcode::Sub: return a - b;
      case Opcode::Mul: return a * b;
      case Opcode::Div: return b ? a / b : 0;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl: return a << (b & 63);
      case Opcode::Shr: return a >> (b & 63);
      case Opcode::Mov: return a;
      case Opcode::Movi: return static_cast<std::uint64_t>(inst.imm);
      default: return 0; // not an ALU opcode
    }
}

/** Load/Store effective address: ra + imm, plus rb * scale when
 *  useIndex. */
inline std::uint64_t
dataAddress(const Inst &inst, const RegFile &regs)
{
    std::uint64_t addr = regs[inst.ra] + static_cast<std::uint64_t>(inst.imm);
    if (inst.useIndex)
        addr += regs[inst.rb] * inst.scale;
    return addr;
}

/** The operands an hmov hands the region check: ra is ignored, the
 *  region base replaces it (§3.2). */
inline core::HmovOperands
hmovOperands(const Inst &inst, const RegFile &regs)
{
    core::HmovOperands ops;
    ops.index = inst.useIndex ? static_cast<std::int64_t>(regs[inst.rb]) : 0;
    ops.scale = inst.scale;
    ops.displacement = inst.imm;
    ops.width = inst.width;
    return ops;
}

/**
 * Whether conditional branch @p op (Beq through Bge) is taken: a
 * signed compare of ra against rb. @p op is inst.op, passed separately
 * for the same reason as in aluResult.
 */
inline bool
branchTaken(Opcode op, const Inst &inst, const RegFile &regs)
{
    const auto a = static_cast<std::int64_t>(regs[inst.ra]);
    const auto b = static_cast<std::int64_t>(regs[inst.rb]);
    switch (op) {
      case Opcode::Beq: return a == b;
      case Opcode::Bne: return a != b;
      case Opcode::Blt: return a < b;
      case Opcode::Bge: return a >= b;
      default: return false; // not a conditional branch
    }
}

/** Build the region value hfi_set_region writes, from the descriptor
 *  registers (base in ra, bound/mask in rb) and permission bits. */
inline core::Region
regionFromDescriptor(unsigned region_number, std::uint64_t base,
                     std::uint64_t bound, std::int64_t perms)
{
    const bool read = perms & 1;
    const bool write = perms & 2;
    const bool exec = perms & 4;
    const bool large = perms & 8;
    switch (core::regionKindOf(region_number)) {
      case core::RegionKind::Code:
        return core::ImplicitCodeRegion{base, bound, exec};
      case core::RegionKind::ImplicitData:
        return core::ImplicitDataRegion{base, bound, read, write};
      default:
        return core::ExplicitDataRegion{base, bound, read, write, large};
    }
}

/**
 * Run @p inst's HfiState transition on @p hfi, reading its operands
 * from @p regs. The one decoding of the hfi_* instructions: executeOn
 * applies the outcome, Pipeline::willSerialize reads its verdict.
 */
inline core::HfiOutcome
hfiTransition(const Inst &inst, const RegFile &regs, core::HfiState &hfi)
{
    switch (inst.op) {
      case Opcode::HfiEnter: {
        core::SandboxConfig config;
        config.isHybrid = inst.imm & 1;
        config.isSerialized = inst.imm & 2;
        config.switchOnExit = inst.imm & 4;
        config.exitHandler = regs[kExitHandlerReg];
        return hfi.enter(config);
      }
      case Opcode::HfiExit:
        return hfi.exit();
      case Opcode::HfiSetRegion:
        return hfi.setRegion(inst.region,
                             regionFromDescriptor(inst.region, regs[inst.ra],
                                                  regs[inst.rb], inst.imm));
      case Opcode::HfiClearRegion:
        return hfi.clearRegion(inst.region);
      default:
        return hfi.syscall();
    }
}

} // namespace detail

/**
 * Executes one instruction: updates @p state (registers, pc, HFI state)
 * through @p mem, enforcing HFI semantics with the bit-level
 * AccessChecker. Faulting instructions write no data (the faulting-NOP
 * micro-op of §4.1) and leave state.pc at the trap target.
 */
class FunctionalCore
{
  public:
    /**
     * The executor itself, generic over the memory adapter: the run
     * loops pass DirectMem, the pipeline its store-queue view
     * (Pipeline::SpecMemView). Both are non-virtual, so the whole
     * instruction dispatch inlines.
     */
    template <typename Mem>
    static ExecInfo
    executeOn(const Inst &inst, std::uint64_t pc, ArchState &state, Mem &mem)
    {
        ExecInfo info;
        info.nextPc = pc + inst.length;
    
        auto &regs = state.regs;
    
        auto fault = [&](core::ExitReason reason) {
            info.faulted = true;
            info.faultReason = reason;
            // §3.3.2: HFI disables the sandbox, records the cause in the
            // MSR, and raises a trap — but those are *retirement* effects.
            // A speculatively faulting instruction must leave the HFI bank
            // untouched so younger wrong-path instructions stay checked
            // (otherwise the fault itself would re-open the side channel).
            // The caller applies the architectural effects at commit.
            info.nextPc = pc; // architectural pc of the faulting instruction
        };
    
        switch (inst.op) {
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Mul:
          case Opcode::Div:
          case Opcode::And:
          case Opcode::Or:
          case Opcode::Xor:
          case Opcode::Shl:
          case Opcode::Shr:
          case Opcode::Mov:
          case Opcode::Movi:
            regs[inst.rd] = detail::aluResult(inst.op, inst, regs);
            break;
    
          case Opcode::Load:
          case Opcode::Store: {
            const std::uint64_t addr = detail::dataAddress(inst, regs);
            info.isMem = true;
            info.isWrite = inst.op == Opcode::Store;
            info.memAddr = addr;
            info.memWidth = inst.width;
            // Implicit data-region check, in parallel with the dtb (§4.1).
            const core::CheckResult check = core::AccessChecker::checkData(
                state.hfi.bank, addr, inst.width, info.isWrite);
            if (!check.ok) {
                fault(check.reason);
                break;
            }
            if (info.isWrite)
                mem.store(addr, regs[inst.rd], inst.width);
            else
                regs[inst.rd] = mem.load(addr, inst.width);
            break;
          }
    
          case Opcode::HmovLoad:
          case Opcode::HmovStore: {
            info.isMem = true;
            info.isWrite = inst.op == Opcode::HmovStore;
            info.memWidth = inst.width;
            if (!state.hfi.bank.enabled) {
                // hmov outside HFI mode is an invalid opcode.
                fault(core::ExitReason::HardwareFault);
                break;
            }
            const core::HmovResult res = core::AccessChecker::checkHmov(
                state.hfi.bank, inst.region, detail::hmovOperands(inst, regs),
                info.isWrite);
            if (!res.ok) {
                fault(res.reason);
                break;
            }
            info.memAddr = res.address;
            if (info.isWrite)
                mem.store(res.address, regs[inst.rd], inst.width);
            else
                regs[inst.rd] = mem.load(res.address, inst.width);
            break;
          }
    
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge:
            info.isBranch = true;
            info.branchTaken = detail::branchTaken(inst.op, inst, regs);
            if (info.branchTaken)
                info.nextPc = inst.target;
            break;
          case Opcode::Jmp:
            info.isBranch = true;
            info.branchTaken = true;
            info.nextPc = inst.target;
            break;
          case Opcode::Call:
            info.isBranch = true;
            info.branchTaken = true;
            regs[kLinkReg] = pc + inst.length;
            info.nextPc = inst.target;
            break;
          case Opcode::Ret:
            info.isBranch = true;
            info.branchTaken = true;
            info.nextPc = regs[kLinkReg];
            break;
    
          case Opcode::Syscall:
          case Opcode::HfiEnter:
          case Opcode::HfiExit:
          case Opcode::HfiSetRegion:
          case Opcode::HfiClearRegion: {
            // Every rule lives in core::HfiState; only the outcome is
            // turned into timing information and control flow here.
            const core::HfiOutcome out =
                detail::hfiTransition(inst, regs, state.hfi);
            info.isSyscall = inst.op == Opcode::Syscall;
            info.serializes = out.serializes;
            if (out.trap != core::ExitReason::None)
                fault(out.trap);
            else if (out.handler != 0)
                info.nextPc = out.handler;
            else if (info.isSyscall && inst.imm == 231) // exit_group
                info.halted = true;
            break;
          }

          case Opcode::Cpuid:
            info.serializes = true;
            // Clobbers its output registers (r12/r13 by our convention —
            // compilers never keep live values in cpuid outputs).
            regs[12] = 0x16;
            regs[13] = 0x756e6547;
            break;
    
          case Opcode::Flush:
            // clflush: evicts the line; no data moves, no HFI data check
            // (the address reveals nothing the attacker does not control).
            info.isFlush = true;
            info.memAddr = regs[inst.ra] + static_cast<std::uint64_t>(inst.imm);
            break;
    
          case Opcode::Halt:
            info.halted = true;
            break;
          case Opcode::Nop:
            break;
        }
    
        if (!info.faulted)
            state.pc = info.nextPc;
        return info;
    }

    /**
     * Run @p program on @p state / @p memory in order until Halt, a
     * fault, or @p max_steps. @return number of instructions executed.
     *
     * Uses a threaded-dispatch interpreter with predecoded branch
     * targets, and elides the per-instruction fetch check whenever the
     * current HFI bank provably passes it for every address in the
     * program (re-proved after any instruction that can touch the
     * bank). Architecturally indistinguishable from runReference —
     * tests cross-validate the two over the whole kernel suite.
     */
    static std::uint64_t run(const Program &program, ArchState &state,
                             SimMemory &memory,
                             std::uint64_t max_steps = 100'000'000);

    /**
     * The straightforward fetch→check→executeOn loop: one instruction
     * at a time, every check performed literally. The semantic
     * reference that run() is validated against.
     */
    static std::uint64_t runReference(const Program &program,
                                      ArchState &state, SimMemory &memory,
                                      std::uint64_t max_steps = 100'000'000);
};

/**
 * True when AccessChecker::checkFetch is guaranteed to pass for every
 * address in [prog.base(), prog.end()) under @p bank, with exactly the
 * verdict the per-address check would give. Both the interpreter and
 * the pipeline use this predicate to elide the per-instruction fetch
 * check on the straight-line path; it must be re-proved after any
 * instruction that can touch the bank.
 */
bool fetchCoversProgram(const core::HfiRegisterFile &bank,
                        const Program &prog);

} // namespace hfi::sim

#endif // HFI_SIM_FUNCTIONAL_H
