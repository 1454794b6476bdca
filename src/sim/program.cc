#include "sim/program.h"

#include <stdexcept>

namespace hfi::sim
{

namespace
{

/**
 * Predecode the static per-instruction facts the pipeline's dispatch
 * and fetch stages need. The masks replicate, register for register,
 * the per-opcode switches dispatch used to run per dynamic instance —
 * an OR over mask bits is exactly the old max/OR over the same
 * registers.
 */
MicroOp
decodeMicroOp(const Inst &inst)
{
    MicroOp u;
    const auto bit = [](unsigned reg) {
        return static_cast<std::uint16_t>(1u << reg);
    };

    // Poison-propagation sources (§4.1).
    switch (inst.op) {
      case Opcode::Movi:
        break;
      case Opcode::Ret:
        u.taintMask = bit(kLinkReg);
        break;
      case Opcode::HmovLoad:
      case Opcode::HmovStore:
        if (inst.useIndex)
            u.taintMask |= bit(inst.rb);
        if (inst.op == Opcode::HmovStore)
            u.taintMask |= bit(inst.rd);
        break;
      case Opcode::Load:
      case Opcode::Store:
        u.taintMask |= bit(inst.ra);
        if (inst.useIndex)
            u.taintMask |= bit(inst.rb);
        if (inst.op == Opcode::Store)
            u.taintMask |= bit(inst.rd);
        break;
      default:
        u.taintMask |= bit(inst.ra);
        if (!inst.useImm)
            u.taintMask |= bit(inst.rb);
        break;
    }

    // Scheduling sources: identical, except hfi_enter waits on the
    // exit-handler register and hfi_set_region on its descriptor pair.
    switch (inst.op) {
      case Opcode::HfiEnter:
        u.readyMask = bit(kExitHandlerReg);
        break;
      case Opcode::HfiSetRegion:
        u.readyMask = static_cast<std::uint16_t>(bit(inst.ra) | bit(inst.rb));
        break;
      default:
        u.readyMask = u.taintMask;
        break;
    }

    const bool is_load =
        inst.op == Opcode::Load || inst.op == Opcode::HmovLoad;
    const bool is_store =
        inst.op == Opcode::Store || inst.op == Opcode::HmovStore;
    if (is_load)
        u.flags |= MicroOp::kIsLoad;
    if (is_store)
        u.flags |= MicroOp::kIsStore;
    if (inst.op == Opcode::HmovLoad || inst.op == Opcode::HmovStore)
        u.flags |= MicroOp::kLcp;
    if ((inst.op == Opcode::Load || inst.op == Opcode::Store) &&
        inst.useIndex && (inst.imm > 0x7fff || inst.imm < -0x8000))
        u.flags |= MicroOp::kUnlaminated;
    if (is_load ||
        (!is_store && !isControl(inst.op) && inst.op != Opcode::Nop &&
         inst.op != Opcode::Halt && inst.op != Opcode::Syscall &&
         inst.op != Opcode::HfiEnter && inst.op != Opcode::HfiExit &&
         inst.op != Opcode::HfiSetRegion &&
         inst.op != Opcode::HfiClearRegion))
        u.flags |= MicroOp::kWritesRd;
    if (isControl(inst.op))
        u.flags |= MicroOp::kIsControl;

    switch (inst.op) {
      case Opcode::HfiEnter:
      case Opcode::HfiExit:
      case Opcode::HfiSetRegion:
      case Opcode::HfiClearRegion:
      case Opcode::Syscall:
      case Opcode::Cpuid:
        u.flags |= MicroOp::kWritesState;
        break;
      default:
        break;
    }
    u.dest = (u.flags & MicroOp::kWritesRd) ? inst.rd
             : inst.op == Opcode::Call     ? kLinkReg
                                           : 0;

    switch (inst.op) {
      case Opcode::Mul:
        u.unit = MicroOp::kUnitMul;
        break;
      case Opcode::Div:
        u.unit = MicroOp::kUnitDiv;
        break;
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::HmovLoad:
      case Opcode::HmovStore:
        u.unit = MicroOp::kUnitMem;
        break;
      default:
        break;
    }

    switch (inst.op) {
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        u.ctrl = MicroOp::kCtrlCond;
        break;
      case Opcode::Jmp:
        u.ctrl = MicroOp::kCtrlJmp;
        break;
      case Opcode::Call:
        u.ctrl = MicroOp::kCtrlCall;
        break;
      case Opcode::Ret:
        u.ctrl = MicroOp::kCtrlRet;
        break;
      default:
        break;
    }
    return u;
}

} // namespace

Program::Program(std::uint64_t base, std::vector<Inst> instructions)
    : base_(base), insts(std::move(instructions))
{
    std::uint64_t at = base_;
    addrs.reserve(insts.size());
    for (std::size_t i = 0; i < insts.size(); ++i) {
        addrs.push_back(at);
        at += insts[i].length;
    }
    end_ = at;

    byOffset.assign(static_cast<std::size_t>(end_ - base_), -1);
    for (std::size_t i = 0; i < insts.size(); ++i)
        byOffset[static_cast<std::size_t>(addrs[i] - base_)] =
            static_cast<std::int32_t>(i);

    targetIdx.resize(insts.size());
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const std::size_t t = indexAt(insts[i].target);
        targetIdx[i] = t == kNoInst ? -1 : static_cast<std::int32_t>(t);
    }

    uops.reserve(insts.size());
    for (const Inst &inst : insts)
        uops.push_back(decodeMicroOp(inst));
}

ProgramBuilder &
ProgramBuilder::label(const std::string &name)
{
    if (labels.count(name))
        throw std::logic_error("duplicate label: " + name);
    labels[name] = insts.size();
    return *this;
}

std::size_t
ProgramBuilder::emit(Inst inst)
{
    if (inst.length == 0)
        inst.length = defaultLength(inst);
    insts.push_back(inst);
    return insts.size() - 1;
}

ProgramBuilder &
ProgramBuilder::alu(Opcode op, unsigned rd, unsigned ra, unsigned rb)
{
    Inst inst;
    inst.op = op;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.ra = static_cast<std::uint8_t>(ra);
    inst.rb = static_cast<std::uint8_t>(rb);
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::alui(Opcode op, unsigned rd, unsigned ra, std::int64_t imm)
{
    Inst inst;
    inst.op = op;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.ra = static_cast<std::uint8_t>(ra);
    inst.useImm = true;
    inst.imm = imm;
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::movi(unsigned rd, std::int64_t value)
{
    Inst inst;
    inst.op = Opcode::Movi;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.useImm = true;
    inst.imm = value;
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::mov(unsigned rd, unsigned ra)
{
    return alu(Opcode::Mov, rd, ra, 0);
}

ProgramBuilder &
ProgramBuilder::add(unsigned rd, unsigned ra, unsigned rb)
{
    return alu(Opcode::Add, rd, ra, rb);
}

ProgramBuilder &
ProgramBuilder::addi(unsigned rd, unsigned ra, std::int64_t imm)
{
    return alui(Opcode::Add, rd, ra, imm);
}

ProgramBuilder &
ProgramBuilder::sub(unsigned rd, unsigned ra, unsigned rb)
{
    return alu(Opcode::Sub, rd, ra, rb);
}

ProgramBuilder &
ProgramBuilder::subi(unsigned rd, unsigned ra, std::int64_t imm)
{
    return alui(Opcode::Sub, rd, ra, imm);
}

ProgramBuilder &
ProgramBuilder::mul(unsigned rd, unsigned ra, unsigned rb)
{
    return alu(Opcode::Mul, rd, ra, rb);
}

ProgramBuilder &
ProgramBuilder::andi(unsigned rd, unsigned ra, std::int64_t imm)
{
    return alui(Opcode::And, rd, ra, imm);
}

ProgramBuilder &
ProgramBuilder::and_(unsigned rd, unsigned ra, unsigned rb)
{
    return alu(Opcode::And, rd, ra, rb);
}

ProgramBuilder &
ProgramBuilder::xor_(unsigned rd, unsigned ra, unsigned rb)
{
    return alu(Opcode::Xor, rd, ra, rb);
}

ProgramBuilder &
ProgramBuilder::or_(unsigned rd, unsigned ra, unsigned rb)
{
    return alu(Opcode::Or, rd, ra, rb);
}

ProgramBuilder &
ProgramBuilder::shli(unsigned rd, unsigned ra, std::int64_t imm)
{
    return alui(Opcode::Shl, rd, ra, imm);
}

ProgramBuilder &
ProgramBuilder::shri(unsigned rd, unsigned ra, std::int64_t imm)
{
    return alui(Opcode::Shr, rd, ra, imm);
}

ProgramBuilder &
ProgramBuilder::load(unsigned rd, unsigned ra, std::int64_t imm,
                     unsigned width)
{
    Inst inst;
    inst.op = Opcode::Load;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.ra = static_cast<std::uint8_t>(ra);
    inst.imm = imm;
    inst.width = static_cast<std::uint8_t>(width);
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::store(unsigned rs, unsigned ra, std::int64_t imm,
                      unsigned width)
{
    Inst inst;
    inst.op = Opcode::Store;
    inst.rd = static_cast<std::uint8_t>(rs);
    inst.ra = static_cast<std::uint8_t>(ra);
    inst.imm = imm;
    inst.width = static_cast<std::uint8_t>(width);
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::loadIndexed(unsigned rd, unsigned ra, unsigned rb,
                            unsigned scale, std::int64_t imm, unsigned width)
{
    Inst inst;
    inst.op = Opcode::Load;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.ra = static_cast<std::uint8_t>(ra);
    inst.rb = static_cast<std::uint8_t>(rb);
    inst.useIndex = true;
    inst.scale = static_cast<std::uint8_t>(scale);
    inst.imm = imm;
    inst.width = static_cast<std::uint8_t>(width);
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::hmovLoad(unsigned region, unsigned rd, unsigned rb,
                         unsigned scale, std::int64_t imm, unsigned width)
{
    Inst inst;
    inst.op = Opcode::HmovLoad;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.rb = static_cast<std::uint8_t>(rb);
    inst.useIndex = true;
    inst.scale = static_cast<std::uint8_t>(scale);
    inst.imm = imm;
    inst.width = static_cast<std::uint8_t>(width);
    inst.region = static_cast<std::uint8_t>(region);
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::hmovStore(unsigned region, unsigned rs, unsigned rb,
                          unsigned scale, std::int64_t imm, unsigned width)
{
    Inst inst;
    inst.op = Opcode::HmovStore;
    inst.rd = static_cast<std::uint8_t>(rs);
    inst.rb = static_cast<std::uint8_t>(rb);
    inst.useIndex = true;
    inst.scale = static_cast<std::uint8_t>(scale);
    inst.imm = imm;
    inst.width = static_cast<std::uint8_t>(width);
    inst.region = static_cast<std::uint8_t>(region);
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::branch(Opcode op, unsigned ra, unsigned rb,
                       const std::string &to)
{
    Inst inst;
    inst.op = op;
    inst.ra = static_cast<std::uint8_t>(ra);
    inst.rb = static_cast<std::uint8_t>(rb);
    inst.length = defaultLength(inst);
    fixups.emplace_back(emit(inst), to);
    return *this;
}

ProgramBuilder &
ProgramBuilder::beq(unsigned ra, unsigned rb, const std::string &to)
{
    return branch(Opcode::Beq, ra, rb, to);
}

ProgramBuilder &
ProgramBuilder::bne(unsigned ra, unsigned rb, const std::string &to)
{
    return branch(Opcode::Bne, ra, rb, to);
}

ProgramBuilder &
ProgramBuilder::blt(unsigned ra, unsigned rb, const std::string &to)
{
    return branch(Opcode::Blt, ra, rb, to);
}

ProgramBuilder &
ProgramBuilder::bge(unsigned ra, unsigned rb, const std::string &to)
{
    return branch(Opcode::Bge, ra, rb, to);
}

ProgramBuilder &
ProgramBuilder::jmp(const std::string &to)
{
    return branch(Opcode::Jmp, 0, 0, to);
}

ProgramBuilder &
ProgramBuilder::call(const std::string &to)
{
    return branch(Opcode::Call, 0, 0, to);
}

ProgramBuilder &
ProgramBuilder::ret()
{
    Inst inst;
    inst.op = Opcode::Ret;
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::syscall(std::int64_t nr)
{
    Inst inst;
    inst.op = Opcode::Syscall;
    inst.useImm = true;
    inst.imm = nr;
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::cpuid()
{
    Inst inst;
    inst.op = Opcode::Cpuid;
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::hfiEnter(bool hybrid, bool serialized, bool switch_on_exit)
{
    Inst inst;
    inst.op = Opcode::HfiEnter;
    inst.imm = (hybrid ? 1 : 0) | (serialized ? 2 : 0) |
               (switch_on_exit ? 4 : 0);
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::hfiExit()
{
    Inst inst;
    inst.op = Opcode::HfiExit;
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::hfiSetRegion(unsigned region, unsigned ra, unsigned rb,
                             std::int64_t perms)
{
    Inst inst;
    inst.op = Opcode::HfiSetRegion;
    inst.ra = static_cast<std::uint8_t>(ra);
    inst.rb = static_cast<std::uint8_t>(rb);
    inst.imm = perms;
    inst.region = static_cast<std::uint8_t>(region);
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::flush(unsigned ra, std::int64_t imm)
{
    Inst inst;
    inst.op = Opcode::Flush;
    inst.ra = static_cast<std::uint8_t>(ra);
    inst.imm = imm;
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::halt()
{
    Inst inst;
    inst.op = Opcode::Halt;
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::nop()
{
    Inst inst;
    inst.op = Opcode::Nop;
    inst.length = defaultLength(inst);
    emit(inst);
    return *this;
}

Program
ProgramBuilder::build()
{
    // First pass: compute addresses.
    std::vector<std::uint64_t> addrs(insts.size() + 1);
    std::uint64_t at = codeBase;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        addrs[i] = at;
        at += insts[i].length;
    }
    addrs[insts.size()] = at;

    // Resolve label fixups to byte addresses.
    for (const auto &[index, name] : fixups) {
        const auto it = labels.find(name);
        if (it == labels.end())
            throw std::logic_error(
                "undefined label: " + name + " (referenced by instruction " +
                std::to_string(index) + ", " + opcodeName(insts[index].op) +
                ")");
        insts[index].target = addrs[it->second];
    }
    return Program(codeBase, insts);
}

} // namespace hfi::sim
