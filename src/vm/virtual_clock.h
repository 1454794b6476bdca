/**
 * @file
 * Deterministic virtual time source used by all experiments.
 *
 * Every subsystem charges its costs (in cycles) to a VirtualClock instead
 * of reading wall-clock time. This makes every benchmark in the repository
 * bit-for-bit reproducible across machines while preserving the relative
 * cost structure the paper measures.
 */

#ifndef HFI_VM_VIRTUAL_CLOCK_H
#define HFI_VM_VIRTUAL_CLOCK_H

#include <cstdint>

namespace hfi::vm
{

/** Cycles of the modeled core. */
using Cycles = std::uint64_t;

/**
 * A monotonically advancing virtual cycle counter.
 *
 * The clock models a fixed-frequency 3.3 GHz core, matching the paper's
 * Table 2 baseline. Conversions to nanoseconds use that frequency.
 */
class VirtualClock
{
  public:
    /** Advance the clock by @p cycles. */
    void tick(Cycles cycles) { now_ += cycles; }

    /** Current virtual cycle count. */
    Cycles now() const { return now_; }

    /** Current virtual time in nanoseconds. */
    double nowNs() const { return cyclesToNs(now_); }

    /**
     * nowNs() through a cached reciprocal: one multiply instead of a
     * divide. May differ from nowNs() in the last ulp (two roundings
     * instead of one), but is the same pure function of the cycle
     * count on every run and host — trace timestamps use this so that
     * recording an event never pays a floating-point divide. Not for
     * values that feed modeled results; those stay on nowNs().
     */
    double
    nowNsFast() const
    {
        return static_cast<double>(now_) * kNsPerCycle;
    }

    /** Convert a cycle count to nanoseconds at this clock's frequency. */
    double
    cyclesToNs(Cycles cycles) const
    {
        return static_cast<double>(cycles) * 1000.0 / kFreqMhz;
    }

    /** Convert nanoseconds to cycles at this clock's frequency. */
    Cycles
    nsToCycles(double ns) const
    {
        return static_cast<Cycles>(ns * kFreqMhz / 1000.0);
    }

  private:
    /** Core frequency in MHz. */
    static constexpr double kFreqMhz = 3300;
    static constexpr double kNsPerCycle = 1000.0 / kFreqMhz;

    Cycles now_ = 0;
};

} // namespace hfi::vm

#endif // HFI_VM_VIRTUAL_CLOCK_H
