#include "workloads/sightglass.h"

#include <bit>

namespace hfi::workloads::sightglass
{

std::uint64_t
runSwitch(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // Dense dispatch over a 32-way switch driven by an opcode stream —
    // Sightglass's control-flow stressor.
    Arena arena(s);
    const std::uint64_t len = 4096;
    const std::uint64_t ops = arena.alloc(len);
    Rng rng(seed);
    for (std::uint64_t i = 0; i < len; ++i)
        s.store<std::uint8_t>(ops + i,
                              static_cast<std::uint8_t>(rng.nextBelow(32)));

    std::uint64_t acc = 1;
    const std::uint64_t passes = 200 * scale;
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
        for (std::uint64_t i = 0; i < len; ++i) {
            const std::uint8_t op = s.load<std::uint8_t>(ops + i);
            switch (op & 7) {
              case 0: acc += op; break;
              case 1: acc ^= acc << 3; break;
              case 2: acc = std::rotl(acc, op & 31); break;
              case 3: acc -= op * 3; break;
              case 4: acc |= 0x55; break;
              case 5: acc *= 0x9e3779b97f4a7c15ULL; break;
              case 6: acc ^= acc >> 7; break;
              case 7: acc += acc >> 2; break;
            }
            s.chargeOps(4);
        }
    }
    return acc;
}

} // namespace hfi::workloads::sightglass
