/**
 * @file
 * Property test of the word-granular SimMemory against a byte-wise
 * reference model.
 *
 * SimMemory's fast path memcpys whole words within a page and caches
 * the last page touched; the reference model below is the obviously
 * correct formulation — one map<addr, byte> per written byte, absent
 * bytes read as zero. A deterministic fuzz drives both with the same
 * mixed-width access sequence (biased toward page-boundary straddles
 * and read-before-write addresses) and requires every read to agree.
 */

#include <gtest/gtest.h>

#include <map>

#include "sim/memory.h"
#include "splitmix.h"

namespace
{

using hfi::sim::SimMemory;
using hfi::test::nextRandom;

/** Byte-wise little-endian reference memory: zero before first write. */
class ReferenceMemory
{
  public:
    std::uint64_t
    read(std::uint64_t addr, unsigned width) const
    {
        std::uint64_t value = 0;
        for (unsigned i = 0; i < width; ++i) {
            const auto it = bytes.find(addr + i);
            const std::uint64_t b = it == bytes.end() ? 0 : it->second;
            value |= b << (8 * i);
        }
        return value;
    }

    void
    write(std::uint64_t addr, std::uint64_t value, unsigned width)
    {
        for (unsigned i = 0; i < width; ++i)
            bytes[addr + i] =
                static_cast<std::uint8_t>(value >> (8 * i));
    }

  private:
    std::map<std::uint64_t, std::uint8_t> bytes;
};

constexpr unsigned kWidths[] = {1, 2, 4, 8};

/** An address biased toward page edges and a small reused working set. */
std::uint64_t
randomAddr(std::uint64_t &rng)
{
    const std::uint64_t page = nextRandom(rng) % 8; // few pages: lots of reuse
    switch (nextRandom(rng) % 4) {
    case 0: // straddle candidates: the last 8 bytes of a page
        return page * SimMemory::kPageBytes + SimMemory::kPageBytes -
               1 - (nextRandom(rng) % 8);
    case 1: // page start
        return page * SimMemory::kPageBytes + (nextRandom(rng) % 8);
    default:
        return page * SimMemory::kPageBytes +
               (nextRandom(rng) % SimMemory::kPageBytes);
    }
}

TEST(SimMemoryProperty, MatchesByteWiseReferenceUnderMixedWidths)
{
    std::uint64_t rng = 0x5107'beef'2026'0805ULL;
    SimMemory mem;
    ReferenceMemory ref;

    for (int iter = 0; iter < 300'000; ++iter) {
        const std::uint64_t addr = randomAddr(rng);
        const unsigned width = kWidths[nextRandom(rng) % 4];
        if (nextRandom(rng) % 2 == 0) {
            const std::uint64_t value = nextRandom(rng);
            mem.write(addr, value, width);
            ref.write(addr, value, width);
        } else {
            ASSERT_EQ(mem.read(addr, width), ref.read(addr, width))
                << "iter " << iter << " addr 0x" << std::hex << addr
                << std::dec << " width " << width;
        }
    }
}

TEST(SimMemoryProperty, ReadBeforeWriteIsZeroEverywhere)
{
    SimMemory mem;
    // Untouched memory reads as zero at every width, including across
    // page boundaries, and doing so must not allocate pages.
    EXPECT_EQ(mem.read(0, 8), 0u);
    EXPECT_EQ(mem.read(SimMemory::kPageBytes - 3, 8), 0u);
    EXPECT_EQ(mem.read(0xdeadbeef, 4), 0u);
    EXPECT_EQ(mem.touchedPages(), 0u);

    // A write then makes *only* its own bytes non-zero: neighbors on
    // the freshly allocated page still read as zero.
    mem.write(100, 0xffffffffffffffffULL, 8);
    EXPECT_EQ(mem.read(92, 8), 0u);
    EXPECT_EQ(mem.read(108, 8), 0u);
    EXPECT_EQ(mem.read(100, 8), 0xffffffffffffffffULL);
    EXPECT_EQ(mem.touchedPages(), 1u);
}

TEST(SimMemoryProperty, PageStraddlingAccessesAreByteExact)
{
    SimMemory mem;
    const std::uint64_t edge = SimMemory::kPageBytes - 4;
    mem.write(edge, 0x1122334455667788ULL, 8); // 4 bytes on each page
    EXPECT_EQ(mem.read(edge, 8), 0x1122334455667788ULL);
    EXPECT_EQ(mem.read(edge, 4), 0x55667788u);
    EXPECT_EQ(mem.read(edge + 4, 4), 0x11223344u);
    EXPECT_EQ(mem.readByte(edge + 7), 0x11u);
    EXPECT_EQ(mem.touchedPages(), 2u);

    // Straddling read of a half-written area: the unwritten page's
    // bytes come back zero.
    SimMemory fresh;
    fresh.write(SimMemory::kPageBytes - 2, 0xaabb, 2);
    EXPECT_EQ(fresh.read(SimMemory::kPageBytes - 2, 8), 0xaabbu);
}

TEST(SimMemoryProperty, WriteBytesMatchesByteLoop)
{
    std::uint64_t rng = 0x77aa'2026'0805ULL;
    std::uint8_t blob[10000];
    for (auto &b : blob)
        b = static_cast<std::uint8_t>(nextRandom(rng));

    SimMemory mem;
    const std::uint64_t base = SimMemory::kPageBytes - 1234; // straddles 3 pages
    mem.writeBytes(base, blob, sizeof blob);
    for (std::uint64_t i = 0; i < sizeof blob; ++i)
        ASSERT_EQ(mem.readByte(base + i), blob[i]) << "offset " << i;
}

} // namespace
