/**
 * @file
 * §6.1's interpreter probe: Sightglass's `switch` kernel over sandbox
 * linear memory.
 *
 * The paper measures the cost of reserving general-purpose registers on
 * Wasmtime's Spidermonkey benchmark; bench/register_pressure runs this
 * opcode-dispatch kernel in its place. The Fig 2 Sightglass suite, in
 * hardware-HFI and compiler-emulation form, lives in sim/kernels.
 */

#ifndef HFI_WORKLOADS_SIGHTGLASS_H
#define HFI_WORKLOADS_SIGHTGLASS_H

#include "workloads/support.h"

namespace hfi::workloads::sightglass
{

/**
 * Switch dispatch over a seeded 4 KiB stream of opcodes, 200 * @p scale
 * passes, one byte load per dispatch. @return the accumulator, which is
 * independent of the isolation backend.
 */
std::uint64_t runSwitch(sfi::Sandbox &s, std::uint64_t scale,
                        std::uint32_t seed);

} // namespace hfi::workloads::sightglass

#endif // HFI_WORKLOADS_SIGHTGLASS_H
