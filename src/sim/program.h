/**
 * @file
 * Program container and assembler-style builder for the pipeline
 * simulator.
 *
 * Programs are sequences of variable-length instructions laid out at a
 * base code address; the builder provides labels with fixups so kernels
 * read like assembly listings. The Fig 2 kernels and the Spectre
 * gadgets (§5.3) are written against this interface.
 */

#ifndef HFI_SIM_PROGRAM_H
#define HFI_SIM_PROGRAM_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/isa.h"

namespace hfi::sim
{

/**
 * Statically predecoded per-instruction facts for the timing pipeline,
 * built once per program and indexed by the dense instruction index.
 *
 * The register masks encode exactly the source sets the pipeline's
 * dispatch stage used to re-derive per dynamic instance with per-opcode
 * switches: `readyMask` is the scheduling set (registers whose
 * ready-cycle gates issue), `taintMask` the poison-propagation set
 * (§4.1). They differ only for hfi_enter (waits on the exit-handler
 * register) and hfi_set_region (waits on its descriptor pair).
 */
struct MicroOp
{
    enum : std::uint8_t
    {
        kIsLoad = 1u << 0,      ///< Load / HmovLoad
        kIsStore = 1u << 1,     ///< Store / HmovStore
        kLcp = 1u << 2,         ///< hmov's length-changing prefix
        kUnlaminated = 1u << 3, ///< index + 32-bit displacement ld/st
        kWritesRd = 1u << 4,    ///< writes rd when not faulted
        kIsControl = 1u << 5,   ///< branches, jmp, call, ret
        kWritesState = 1u << 6, ///< may write HfiState or several regs
    };

    /** Issue-unit class. */
    enum : std::uint8_t
    {
        kUnitAlu = 0,
        kUnitMul = 1,
        kUnitDiv = 2,
        kUnitMem = 3,
    };

    /** Control-flow class (drives next-fetch prediction). */
    enum : std::uint8_t
    {
        kCtrlNone = 0,
        kCtrlCond = 1,
        kCtrlJmp = 2,
        kCtrlCall = 3,
        kCtrlRet = 4,
    };

    std::uint16_t readyMask = 0; ///< source regs gating issue
    std::uint16_t taintMask = 0; ///< source regs propagating poison
    std::uint8_t unit = kUnitAlu;
    std::uint8_t ctrl = kCtrlNone;
    std::uint8_t flags = 0;
    std::uint8_t dest = 0; ///< register written: rd, Call's link, or 0
};

/** An assembled program: instructions with resolved byte addresses. */
class Program
{
  public:
    Program() = default;
    Program(std::uint64_t base, std::vector<Inst> insts);

    /** Code base address. */
    std::uint64_t base() const { return base_; }

    /** One past the last code byte. */
    std::uint64_t end() const { return end_; }

    /** Total code bytes. */
    std::uint64_t codeBytes() const { return end_ - base_; }

    std::size_t instructionCount() const { return insts.size(); }

    /**
     * Instruction starting exactly at @p addr, or nullptr (fetching
     * mid-instruction or outside the program is an invalid-opcode
     * fault).
     */
    const Inst *
    at(std::uint64_t addr) const
    {
        const std::size_t index = indexAt(addr);
        return index == kNoInst ? nullptr : &insts[index];
    }

    /**
     * Index of the instruction starting at @p addr (kNoInst if none),
     * with a caller-held sequential hint.
     *
     * @p hint is the index the caller expects to fetch next (typically
     * last index + 1, maintained by the caller across calls). When the
     * hinted instruction starts exactly at @p addr — the common case of
     * straight-line execution — the fetch is a single load-and-compare;
     * otherwise (taken branch, call, return) it falls back to the dense
     * offset table. On success *hint is updated to index + 1 so the
     * next sequential fetch hits again.
     */
    std::size_t
    fetchIndex(std::uint64_t addr, std::size_t *hint) const
    {
        std::size_t index = *hint;
        if (index >= insts.size() || addrs[index] != addr) {
            index = indexAt(addr);
            if (index == kNoInst)
                return kNoInst;
        }
        *hint = index + 1;
        return index;
    }

    /** Sentinel for "no instruction starts at this address". */
    static constexpr std::size_t kNoInst = static_cast<std::size_t>(-1);

    /** Index of the instruction starting at @p addr, or kNoInst. */
    std::size_t
    indexAt(std::uint64_t addr) const
    {
        if (addr < base_ || addr >= end_)
            return kNoInst;
        const std::int32_t index =
            byOffset[static_cast<std::size_t>(addr - base_)];
        return index < 0 ? kNoInst : static_cast<std::size_t>(index);
    }

    /** Byte address of instruction @p index. */
    std::uint64_t addressOf(std::size_t index) const { return addrs[index]; }

    /**
     * Predecoded index of instruction @p index's control-flow target
     * (kNoInst when the target is not an instruction start — including
     * non-control instructions, whose target field is 0). Lets the
     * interpreter take a branch without an address lookup.
     */
    std::size_t
    targetIndexOf(std::size_t index) const
    {
        const std::int32_t t = targetIdx[index];
        return t < 0 ? kNoInst : static_cast<std::size_t>(t);
    }

    const std::vector<Inst> &instructions() const { return insts; }

    /** Predecoded µop table, parallel to instructions(). */
    const MicroOp *microOps() const { return uops.data(); }

  private:
    std::uint64_t base_ = 0;
    std::uint64_t end_ = 0;
    std::vector<Inst> insts;
    std::vector<std::uint64_t> addrs;
    /**
     * Dense code-offset -> instruction-index table (-1 where no
     * instruction starts). Code is contiguous from base_, so the table
     * is exactly codeBytes() entries and a fetch is one bounds check
     * plus one indexed load — no ordered-map walk on the hot path.
     */
    std::vector<std::int32_t> byOffset;
    /** Per-instruction predecoded target index (-1 = not a target). */
    std::vector<std::int32_t> targetIdx;
    /** Per-instruction predecoded µops (see MicroOp). */
    std::vector<MicroOp> uops;
};

/**
 * Assembler with labels and the usual convenience mnemonics.
 *
 * Control-flow targets are given as label strings and resolved when
 * build() lays the code out; referencing an undefined label throws.
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::uint64_t base = 0x400000)
        : codeBase(base)
    {
    }

    /** Define @p name at the current position. */
    ProgramBuilder &label(const std::string &name);

    /** Append a raw instruction (length auto-assigned if 0). */
    std::size_t emit(Inst inst);

    // ALU helpers.
    ProgramBuilder &movi(unsigned rd, std::int64_t value);
    ProgramBuilder &mov(unsigned rd, unsigned ra);
    ProgramBuilder &add(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &addi(unsigned rd, unsigned ra, std::int64_t imm);
    ProgramBuilder &sub(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &subi(unsigned rd, unsigned ra, std::int64_t imm);
    ProgramBuilder &mul(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &andi(unsigned rd, unsigned ra, std::int64_t imm);
    ProgramBuilder &and_(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &xor_(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &or_(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &shli(unsigned rd, unsigned ra, std::int64_t imm);
    ProgramBuilder &shri(unsigned rd, unsigned ra, std::int64_t imm);

    // Memory helpers (width in bytes).
    ProgramBuilder &load(unsigned rd, unsigned ra, std::int64_t imm,
                         unsigned width = 8);
    ProgramBuilder &store(unsigned rs, unsigned ra, std::int64_t imm,
                          unsigned width = 8);
    /** Indexed load: rd <- mem[ra + rb*scale + imm]. */
    ProgramBuilder &loadIndexed(unsigned rd, unsigned ra, unsigned rb,
                                unsigned scale, std::int64_t imm,
                                unsigned width = 8);
    /** hmov<region> load: rd <- region[rb*scale + imm]. */
    ProgramBuilder &hmovLoad(unsigned region, unsigned rd, unsigned rb,
                             unsigned scale = 1, std::int64_t imm = 0,
                             unsigned width = 8);
    ProgramBuilder &hmovStore(unsigned region, unsigned rs, unsigned rb,
                              unsigned scale = 1, std::int64_t imm = 0,
                              unsigned width = 8);

    // Control flow.
    ProgramBuilder &beq(unsigned ra, unsigned rb, const std::string &to);
    ProgramBuilder &bne(unsigned ra, unsigned rb, const std::string &to);
    ProgramBuilder &blt(unsigned ra, unsigned rb, const std::string &to);
    ProgramBuilder &bge(unsigned ra, unsigned rb, const std::string &to);
    ProgramBuilder &jmp(const std::string &to);
    ProgramBuilder &call(const std::string &to);
    ProgramBuilder &ret();

    // System / HFI.
    ProgramBuilder &syscall(std::int64_t nr);
    ProgramBuilder &cpuid();
    ProgramBuilder &hfiEnter(bool hybrid, bool serialized,
                             bool switch_on_exit = false);
    ProgramBuilder &hfiExit();
    /**
     * hfi_set_region: the descriptor is read from registers ra (base /
     * base_prefix), rb (bound / lsb_mask), imm (permission bits:
     * 1=read, 2=write, 4=exec, 8=large).
     */
    ProgramBuilder &hfiSetRegion(unsigned region, unsigned ra, unsigned rb,
                                 std::int64_t perms);
    /** clflush [ra + imm]. */
    ProgramBuilder &flush(unsigned ra, std::int64_t imm = 0);
    ProgramBuilder &halt();
    ProgramBuilder &nop();

    /** Lay out the code and resolve label fixups. */
    Program build();

  private:
    ProgramBuilder &alu(Opcode op, unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &alui(Opcode op, unsigned rd, unsigned ra,
                         std::int64_t imm);
    ProgramBuilder &branch(Opcode op, unsigned ra, unsigned rb,
                           const std::string &to);

    std::uint64_t codeBase;
    std::vector<Inst> insts;
    std::map<std::string, std::size_t> labels;       ///< name -> inst index
    std::vector<std::pair<std::size_t, std::string>> fixups;
};

} // namespace hfi::sim

#endif // HFI_SIM_PROGRAM_H
