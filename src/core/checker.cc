#include "core/checker.h"

namespace hfi::core
{

const char *
toString(ExitReason reason)
{
    switch (reason) {
      case ExitReason::None: return "none";
      case ExitReason::HfiExit: return "hfi_exit";
      case ExitReason::Syscall: return "syscall";
      case ExitReason::DataBoundsViolation: return "data-bounds-violation";
      case ExitReason::CodeBoundsViolation: return "code-bounds-violation";
      case ExitReason::PermissionViolation: return "permission-violation";
      case ExitReason::HmovBoundsViolation: return "hmov-bounds-violation";
      case ExitReason::HmovNegativeOperand: return "hmov-negative-operand";
      case ExitReason::HmovOverflow: return "hmov-overflow";
      case ExitReason::HmovEmptyRegion: return "hmov-empty-region";
      case ExitReason::HardwareFault: return "hardware-fault";
      case ExitReason::IllegalRegionUpdate: return "illegal-region-update";
      case ExitReason::IllegalXrstor: return "illegal-xrstor";
    }
    return "unknown";
}

HmovResult
AccessChecker::checkHmovNaive(const HfiRegisterFile &bank,
                              unsigned explicit_index,
                              const HmovOperands &ops, bool write)
{
    HmovResult res;
    const FlatRegionSlot *r =
        detail::selectRegion(bank, explicit_index, &res.reason);
    if (!r)
        return res;
    if (write ? !r->permWrite : !r->permRead) {
        res.reason = ExitReason::PermissionViolation;
        return res;
    }

    std::uint64_t offset = 0;
    if (!detail::computeOffset(ops, &offset, &res.reason))
        return res;

    const VAddr ea = r->base + offset;
    if (ea < r->base || ea + ops.width - 1 < ea) {
        res.reason = ExitReason::HmovOverflow;
        return res;
    }
    // Full-width reference check: the entire access must fall inside
    // [base, base + bound). Two 64-bit comparisons.
    if (offset >= r->bound || r->bound - offset < ops.width) {
        res.reason = ExitReason::HmovBoundsViolation;
        return res;
    }
    res.ok = true;
    res.reason = ExitReason::None;
    res.address = ea;
    return res;
}

CheckResult
AccessChecker::checkData(const HfiContext &ctx, VAddr addr,
                         std::uint32_t width, bool write)
{
    return checkData(ctx.registerFile(), addr, width, write);
}

HmovResult
AccessChecker::checkHmov(const HfiContext &ctx, unsigned explicit_index,
                         const HmovOperands &ops, bool write)
{
    return checkHmov(ctx.registerFile(), explicit_index, ops, write);
}

} // namespace hfi::core
