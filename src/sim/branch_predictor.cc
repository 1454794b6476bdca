#include "sim/branch_predictor.h"

namespace hfi::sim
{

bool
BranchPredictor::predictDirection(std::uint64_t pc) const
{
    return pht[phtIndex(pc)] >= 2;
}

void
BranchPredictor::updateDirection(std::uint64_t pc, bool taken)
{
    std::uint8_t &counter = pht[phtIndex(pc)];
    if (taken && counter < 3)
        ++counter;
    else if (!taken && counter > 0)
        --counter;
}

void
BranchPredictor::pushReturn(std::uint64_t addr)
{
    rsb[rsbTop % kRsbDepth] = addr;
    ++rsbTop;
}

std::uint64_t
BranchPredictor::popReturn()
{
    if (rsbTop == 0)
        return 0;
    --rsbTop;
    return rsb[rsbTop % kRsbDepth];
}

} // namespace hfi::sim
