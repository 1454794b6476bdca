#include "workloads/crypto.h"

#include <bit>
#include <cstring>

#include "workloads/support.h"

namespace hfi::workloads::crypto
{

namespace
{

constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/** One SHA-256 compression round over a prepared 64-byte block. */
void
sha256Compress(std::array<std::uint32_t, 8> &h, const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
               static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
               static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
               static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                                 std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                                 std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 =
            std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = hh + s1 + ch + kSha256K[i] + w[i];
        const std::uint32_t s0 =
            std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        hh = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
}

/** Finish padding + length and squeeze the digest. */
std::array<std::uint8_t, 32>
sha256Finish(std::array<std::uint32_t, 8> &h, std::uint8_t *tail,
             std::size_t tail_len, std::uint64_t total_len)
{
    std::uint8_t block[128] = {};
    std::memcpy(block, tail, tail_len);
    block[tail_len] = 0x80;
    const std::size_t blocks = tail_len + 9 <= 64 ? 1 : 2;
    const std::uint64_t bit_len = total_len * 8;
    for (int i = 0; i < 8; ++i)
        block[blocks * 64 - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
    sha256Compress(h, block);
    if (blocks == 2)
        sha256Compress(h, block + 64);

    std::array<std::uint8_t, 32> digest;
    for (int i = 0; i < 8; ++i) {
        digest[4 * i] = static_cast<std::uint8_t>(h[i] >> 24);
        digest[4 * i + 1] = static_cast<std::uint8_t>(h[i] >> 16);
        digest[4 * i + 2] = static_cast<std::uint8_t>(h[i] >> 8);
        digest[4 * i + 3] = static_cast<std::uint8_t>(h[i]);
    }
    return digest;
}

/** ChaCha20 quarter round. */
inline void
quarterRound(std::uint32_t &a, std::uint32_t &b, std::uint32_t &c,
             std::uint32_t &d)
{
    a += b; d ^= a; d = std::rotl(d, 16);
    c += d; b ^= c; b = std::rotl(b, 12);
    a += b; d ^= a; d = std::rotl(d, 8);
    c += d; b ^= c; b = std::rotl(b, 7);
}

/** Core ChaCha20 block into @p out (16 words). */
void
chachaCore(const std::uint32_t state[16], std::uint32_t out[16])
{
    std::uint32_t x[16];
    std::memcpy(x, state, sizeof(x));
    for (int round = 0; round < 10; ++round) {
        quarterRound(x[0], x[4], x[8], x[12]);
        quarterRound(x[1], x[5], x[9], x[13]);
        quarterRound(x[2], x[6], x[10], x[14]);
        quarterRound(x[3], x[7], x[11], x[15]);
        quarterRound(x[0], x[5], x[10], x[15]);
        quarterRound(x[1], x[6], x[11], x[12]);
        quarterRound(x[2], x[7], x[8], x[13]);
        quarterRound(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i)
        out[i] = x[i] + state[i];
}

std::uint32_t
readLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::array<std::uint8_t, 32>
sha256(const std::uint8_t *data, std::size_t len)
{
    std::array<std::uint32_t, 8> h = kSha256Init;
    std::size_t off = 0;
    while (len - off >= 64) {
        sha256Compress(h, data + off);
        off += 64;
    }
    std::uint8_t tail[64];
    // len == 0 arrives with data == nullptr; memcpy requires non-null
    // pointers even for a zero-byte copy.
    if (len - off > 0)
        std::memcpy(tail, data + off, len - off);
    return sha256Finish(h, tail, len - off, len);
}

std::uint64_t
sha256Sandboxed(sfi::Sandbox &sandbox, std::uint64_t in_off,
                std::uint64_t len, std::uint64_t out_off)
{
    std::array<std::uint32_t, 8> h = kSha256Init;
    std::uint8_t block[64];
    std::uint64_t off = 0;
    while (len - off >= 64) {
        std::uint64_t words[8];
        sandbox.loadN(in_off + off, words, 8);
        std::memcpy(block, words, 64);
        sha256Compress(h, block);
        // The compression function is ~64 rounds of ~12 ALU ops plus
        // the message schedule.
        sandbox.chargeOps(64 * 12 + 48 * 8);
        off += 64;
    }
    std::uint8_t tail[64];
    for (std::uint64_t i = 0; i < len - off; ++i)
        tail[i] = sandbox.load<std::uint8_t>(in_off + off + i);
    const auto digest = sha256Finish(h, tail, len - off, len);
    sandbox.chargeOps(64 * 12 + 48 * 8);
    for (int i = 0; i < 32; ++i)
        sandbox.store<std::uint8_t>(out_off + i, digest[i]);

    Checksum sum;
    for (int i = 0; i < 32; ++i)
        sum.mix(digest[i]);
    return sum.value();
}

std::array<std::uint8_t, 64>
chacha20Block(const std::array<std::uint8_t, 32> &key,
              const std::array<std::uint8_t, 12> &nonce,
              std::uint32_t counter)
{
    std::uint32_t state[16] = {0x61707865, 0x3320646e, 0x79622d32,
                               0x6b206574};
    for (int i = 0; i < 8; ++i)
        state[4 + i] = readLe32(key.data() + 4 * i);
    state[12] = counter;
    for (int i = 0; i < 3; ++i)
        state[13 + i] = readLe32(nonce.data() + 4 * i);

    std::uint32_t out[16];
    chachaCore(state, out);

    std::array<std::uint8_t, 64> bytes;
    for (int i = 0; i < 16; ++i) {
        bytes[4 * i] = static_cast<std::uint8_t>(out[i]);
        bytes[4 * i + 1] = static_cast<std::uint8_t>(out[i] >> 8);
        bytes[4 * i + 2] = static_cast<std::uint8_t>(out[i] >> 16);
        bytes[4 * i + 3] = static_cast<std::uint8_t>(out[i] >> 24);
    }
    return bytes;
}

} // namespace hfi::workloads::crypto
