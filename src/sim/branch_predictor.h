/**
 * @file
 * Branch prediction: a 2-bit-counter PHT for conditional direction and
 * an RSB for returns. Direct targets need no BTB: the program's targets
 * are predecoded, and the ISA has no indirect branch.
 *
 * The PHT is what the Spectre-PHT attack trains (§5.3): the attacker
 * runs the victim's bounds check in-bounds repeatedly, driving the
 * counter to strongly-taken, then supplies an out-of-bounds index so
 * the core speculates down the in-bounds path.
 */

#ifndef HFI_SIM_BRANCH_PREDICTOR_H
#define HFI_SIM_BRANCH_PREDICTOR_H

#include <array>
#include <bit>
#include <cstdint>

namespace hfi::sim
{

class BranchPredictor
{
  public:
    static constexpr std::size_t kPhtEntries = 4096;
    static constexpr std::size_t kRsbDepth = 16;
    static_assert(std::has_single_bit(kPhtEntries) &&
                  std::has_single_bit(kRsbDepth));

    BranchPredictor() { pht.fill(1); }

    /** Predict a conditional branch's direction at @p pc. */
    bool predictDirection(std::uint64_t pc) const;

    /** Update the PHT with the resolved direction. */
    void updateDirection(std::uint64_t pc, bool taken);

    /** Push a return address (call). */
    void pushReturn(std::uint64_t addr);

    /** Pop the predicted return address (0 when empty). */
    std::uint64_t popReturn();

  private:
    static std::size_t
    phtIndex(std::uint64_t pc)
    {
        return (pc >> 2) & (kPhtEntries - 1);
    }

    std::array<std::uint8_t, kPhtEntries> pht; ///< 2-bit saturating counters
    std::array<std::uint64_t, kRsbDepth> rsb{};
    std::size_t rsbTop = 0;
};

} // namespace hfi::sim

#endif // HFI_SIM_BRANCH_PREDICTOR_H
