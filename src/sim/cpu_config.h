/**
 * @file
 * The baseline core configuration — Table 2 of the paper.
 *
 * | Frequency   | 3.3 GHz        | i-cache      | 32 KiB, 8-way  |
 * | Fetch width | 16 B           | d-cache      | 32 KiB, 8-way  |
 * | Issue width | 8 uops         | Decode width | 5 uops         |
 * | INT regfile | 186 regs       | IQ           | 97 entries     |
 * | LQ/SQ       | 64/36 entries  | Int ALU      | 4, Mult 1      |
 * | ROB         | 224 entries    |              |                |
 *
 * The pipeline counts cycles and never converts them to time, so the
 * 3.3 GHz clock is not a setting.
 */

#ifndef HFI_SIM_CPU_CONFIG_H
#define HFI_SIM_CPU_CONFIG_H

#include "sim/cache.h"

namespace hfi::sim
{

/** Structural and latency parameters of the modeled core. */
struct CpuConfig
{
    unsigned fetchBytes = 16;
    unsigned decodeWidth = 5;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned robSize = 224;
    unsigned lqSize = 64;
    unsigned sqSize = 36;
    unsigned decodeQueueDepth = 24;

    unsigned intAluCount = 4;
    unsigned intMultCount = 1;
    unsigned memPortCount = 2;

    unsigned aluLatency = 1;
    unsigned mulLatency = 3;
    unsigned divLatency = 20;

    /** Front-end refill after a taken redirect (mispredict penalty). */
    unsigned redirectPenalty = 10;
    /** Extra drain cost of serializing instructions (cpuid-class). */
    unsigned serializeFlushCycles = 28;

    CacheConfig icache{32 * 1024, 8, 64, 1, 12};
    CacheConfig dcache{32 * 1024, 8, 64, 4, 80};
};

/**
 * The dtb of Figure 1: one fully-associative set of 64 ways whose
 * "lines" are 4 KiB pages. A hit costs nothing beyond the lookup that
 * runs in parallel with the data-region check (§4.2); a miss pays a
 * 20-cycle page walk.
 */
inline constexpr CacheConfig kDtbConfig{64 * 4096, 64, 4096, 0, 20};

} // namespace hfi::sim

#endif // HFI_SIM_CPU_CONFIG_H
