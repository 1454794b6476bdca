/**
 * @file
 * splitmix64: the tests' one seeded generator. Deterministic and
 * cheap, so a fuzz stream is a pure function of its seed.
 */

#ifndef HFI_TESTS_SPLITMIX_H
#define HFI_TESTS_SPLITMIX_H

#include <cstdint>

namespace hfi::test
{

/** Advance @p state and return the next value of its stream. */
inline std::uint64_t
nextRandom(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace hfi::test

#endif // HFI_TESTS_SPLITMIX_H
