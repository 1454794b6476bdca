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

/** Four message-schedule words, one per lane. */
typedef std::uint32_t U4 __attribute__((vector_size(16)));

std::uint32_t
readBe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) << 24 |
           static_cast<std::uint32_t>(p[1]) << 16 |
           static_cast<std::uint32_t>(p[2]) << 8 |
           static_cast<std::uint32_t>(p[3]);
}

/** Four big-endian words from @p p. */
inline U4
readBe4(const std::uint8_t *p)
{
    return U4{readBe32(p), readBe32(p + 4), readBe32(p + 8),
              readBe32(p + 12)};
}

U4
rotrU4(U4 x, int n)
{
    return x >> n | x << (32 - n);
}

/**
 * W[t..t+3] from W[t-16..t-1], held oldest first in @p x0..@p x3.
 * Lanes 2 and 3 take sigma1 of lanes 0 and 1, so those go first.
 */
inline U4
scheduleU4(U4 x0, U4 x1, U4 x2, U4 x3)
{
    const U4 w15 = __builtin_shufflevector(x0, x1, 1, 2, 3, 4);
    const U4 w7 = __builtin_shufflevector(x2, x3, 1, 2, 3, 4);
    const U4 sum = x0 + w7 + (rotrU4(w15, 7) ^ rotrU4(w15, 18) ^ w15 >> 3);
    const auto sigma1 = [](U4 w2) {
        return rotrU4(w2, 17) ^ rotrU4(w2, 19) ^ w2 >> 10;
    };
    const U4 lo = sum + sigma1(__builtin_shufflevector(x3, x3, 2, 3, 2, 3));
    const U4 hi = sum + sigma1(__builtin_shufflevector(lo, lo, 0, 1, 0, 1));
    return __builtin_shufflevector(lo, hi, 0, 1, 6, 7);
}

/** W + K for four rounds, from @p k onward, stored at @p wk. */
void
addK(std::uint32_t *wk, U4 w, const std::uint32_t *k)
{
    U4 kv;
    std::memcpy(&kv, k, sizeof(kv));
    w += kv;
    std::memcpy(wk, &w, sizeof(w));
}

/**
 * One round. The caller rotates the state by argument order: @p h
 * becomes the next a and @p d the next e. @p bc is b ^ c on entry and
 * a ^ b on return, which is the next round's b ^ c.
 */
inline void
sha256Round(std::uint32_t a, std::uint32_t b, std::uint32_t &d,
            std::uint32_t e, std::uint32_t f, std::uint32_t g,
            std::uint32_t &h, std::uint32_t wk, std::uint32_t &bc)
{
    h += (std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25)) +
         (g ^ (e & (f ^ g))) + wk;
    d += h;
    const std::uint32_t ab = a ^ b;
    h += (std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22)) +
         (b ^ (ab & bc));
    bc = ab;
}

/**
 * One SHA-256 compression over a 64-byte block. The schedule keeps the
 * last 16 words in four vectors, x0 oldest; each 8-round group runs on
 * the W + K that the group before it computed.
 */
void
sha256Compress(std::array<std::uint32_t, 8> &state, const std::uint8_t *block)
{
    U4 x0 = readBe4(block), x1 = readBe4(block + 16);
    U4 x2 = readBe4(block + 32), x3 = readBe4(block + 48);
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    std::uint32_t bc = b ^ c;

    alignas(16) std::uint32_t wk[2][8];
    addK(wk[0], x0, &kSha256K[0]);
    addK(wk[0] + 4, x1, &kSha256K[4]);
    for (int i = 0; i < 8; ++i) {
        // Group i runs on W[8i..8i+7]; x2 and x3 hold the next group's.
        if (i < 7) {
            if (i > 0) {
                const U4 n0 = scheduleU4(x0, x1, x2, x3);
                const U4 n1 = scheduleU4(x1, x2, x3, n0);
                x0 = x2;
                x1 = x3;
                x2 = n0;
                x3 = n1;
            }
            addK(wk[(i + 1) % 2], x2, &kSha256K[8 * i + 8]);
            addK(wk[(i + 1) % 2] + 4, x3, &kSha256K[8 * i + 12]);
        }
        const std::uint32_t *k = wk[i % 2];
        sha256Round(a, b, d, e, f, g, h, k[0], bc);
        sha256Round(h, a, c, d, e, f, g, k[1], bc);
        sha256Round(g, h, b, c, d, e, f, k[2], bc);
        sha256Round(f, g, a, b, c, d, e, k[3], bc);
        sha256Round(e, f, h, a, b, c, d, k[4], bc);
        sha256Round(d, e, g, h, a, b, c, k[5], bc);
        sha256Round(c, d, f, g, h, a, b, k[6], bc);
        sha256Round(b, c, e, f, g, h, a, k[7], bc);
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
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
    std::uint64_t off = 0;
    while (len - off >= 64) {
        std::uint64_t words[8];
        sandbox.loadN(in_off + off, words, 8);
        sha256Compress(h, reinterpret_cast<const std::uint8_t *>(words));
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
