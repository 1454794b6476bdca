/**
 * @file
 * Functional tests for the workload library: known-answer crypto
 * vectors, codec round trips, and the backbone property that every
 * kernel's checksum is identical across isolation backends (isolation
 * must never change computation results — only costs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "sfi/sandbox.h"
#include "workloads/crypto.h"
#include "workloads/faas_workloads.h"
#include "workloads/font.h"
#include "workloads/image.h"
#include "workloads/sightglass.h"
#include "workloads/spec_like.h"
#include "workloads/support.h"

namespace
{

using namespace hfi;
using namespace hfi::workloads;

std::unique_ptr<sfi::Sandbox>
makeSandbox(vm::Mmu &mmu, core::HfiContext &ctx, sfi::BackendKind kind,
            unsigned icache = 0)
{
    sfi::SandboxOptions opts;
    opts.initialPages = 4;
    opts.icacheSensitivity = icache;
    auto sandbox = std::make_unique<sfi::Sandbox>(mmu, ctx, kind, opts);
    if (!sandbox->valid())
        sandbox.reset();
    return sandbox;
}

class WorkloadFixture : public ::testing::Test
{
  protected:
    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
};

// --------------------------------------------------------------- crypto

std::string
hex(const std::uint8_t *bytes, std::size_t n)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
        out += kDigits[bytes[i] >> 4];
        out += kDigits[bytes[i] & 15];
    }
    return out;
}

std::string
sha256Hex(const std::vector<std::uint8_t> &data)
{
    return hex(crypto::sha256(data.data(), data.size()).data(), 32);
}

std::vector<std::uint8_t>
bytesOf(const char *text)
{
    return std::vector<std::uint8_t>(text, text + std::strlen(text));
}

TEST(Crypto, Sha256EmptyString)
{
    EXPECT_EQ(
        hex(crypto::sha256(nullptr, 0).data(), 32),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Crypto, Sha256Abc)
{
    // FIPS 180-2 test vector.
    EXPECT_EQ(
        sha256Hex(bytesOf("abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Crypto, Sha256LongInput)
{
    // FIPS 180-2: the two-block "abcdbcde..." vector.
    EXPECT_EQ(
        sha256Hex(bytesOf(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Crypto, Sha256MillionA)
{
    // FIPS 180-2: one million 'a'.
    EXPECT_EQ(
        sha256Hex(std::vector<std::uint8_t>(1000000, 'a')),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

/** Byte i of a known-answer input is (31 i + 7) mod 256. */
std::vector<std::uint8_t>
shaFill(std::size_t len)
{
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < len; ++i)
        data[i] = static_cast<std::uint8_t>(i * 31 + 7);
    return data;
}

struct ShaVector
{
    std::size_t len;
    /** Clock cycles sha256Sandboxed charges on a fresh HFI sandbox. */
    vm::Cycles sandboxedCycles;
    const char *digest;
};

/**
 * Digests of shaFill(len), computed apart from this code with Python's
 * hashlib and pasted in:
 *   python3 -c 'import hashlib; n = 55; print(hashlib.sha256(
 *       bytes((i * 31 + 7) % 256 for i in range(n))).hexdigest())'
 * The lengths cover no block, one byte, the last one-block padding (55),
 * the first two-block padding (56), block edges and a 96 KiB input. The
 * cycle figures pin what sha256Sandboxed charges, which follows from its
 * accesses and op charges alone, never from how a block is compressed.
 */
const ShaVector kShaVectors[] = {
    {0, 4782,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {1, 8413,
     "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879"},
    {55, 8467,
     "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"},
    {56, 8468,
     "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"},
    {63, 8475,
     "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"},
    {64, 9572,
     "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"},
    {65, 9573,
     "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"},
    {119, 9627,
     "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"},
    {120, 9628,
     "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656"},
    {128, 10732,
     "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356"},
    {1000, 25852,
     "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179"},
    {96 * 1024, 1877292,
     "b1587c08f56bfadfae0b8b4bbf637989867624248ba4ccfce2e99ac393f8fdda"},
};

TEST(Crypto, Sha256KnownAnswersAtBlockEdges)
{
    for (const ShaVector &v : kShaVectors)
        EXPECT_EQ(sha256Hex(shaFill(v.len)), v.digest) << "len " << v.len;
}

TEST(Crypto, Chacha20Rfc8439Block)
{
    // RFC 8439 §2.3.2 test vector, block counter 1.
    std::array<std::uint8_t, 32> key;
    for (int i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(i);
    std::array<std::uint8_t, 12> nonce = {0, 0, 0, 9, 0, 0,
                                          0, 0x4a, 0, 0, 0, 0};
    const auto block = crypto::chacha20Block(key, nonce, 1);
    const std::uint8_t expected[] = {0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b,
                                     0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f,
                                     0xa3, 0x20, 0x71, 0xc4};
    EXPECT_EQ(std::memcmp(block.data(), expected, sizeof(expected)), 0);
}

class CryptoSandboxed : public WorkloadFixture
{
};

TEST_F(CryptoSandboxed, Sha256MatchesHostReference)
{
    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    ASSERT_TRUE(sandbox);
    std::vector<std::uint8_t> data(1000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 31);
    sandbox->memory().writeBytes(64, data.data(), data.size());

    crypto::sha256Sandboxed(*sandbox, 64, data.size(), 8192);
    std::uint8_t in_sandbox[32];
    sandbox->memory().readBytes(8192, in_sandbox, 32);

    const auto host = crypto::sha256(data.data(), data.size());
    EXPECT_EQ(std::memcmp(in_sandbox, host.data(), 32), 0);
}

/**
 * The sandboxed digest of every known-answer input, and what it costs:
 * one 8-word load per block, one byte load per tail byte, 32 byte
 * stores, one compression charge per block plus one for the padding,
 * and the clock those charge.
 */
TEST(CryptoSandboxedVectors, KnownAnswersAndCosts)
{
    constexpr std::uint64_t kOut = 128 * 1024;
    constexpr std::uint64_t kCompressOps = 64 * 12 + 48 * 8;
    for (const ShaVector &v : kShaVectors) {
        SCOPED_TRACE(v.len);
        vm::VirtualClock clock;
        vm::Mmu mmu(clock);
        core::HfiContext ctx(clock);
        auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
        ASSERT_TRUE(sandbox);
        const auto data = shaFill(v.len);
        sandbox->memory().writeBytes(64, data.data(), data.size());

        const vm::Cycles before = clock.now();
        crypto::sha256Sandboxed(*sandbox, 64, v.len, kOut);
        const vm::Cycles cycles = clock.now() - before;

        std::uint8_t digest[32];
        sandbox->memory().readBytes(kOut, digest, 32);
        EXPECT_EQ(hex(digest, 32), v.digest);
        const sfi::SandboxStats &st = sandbox->stats();
        EXPECT_EQ(st.loads, 8 * (v.len / 64) + v.len % 64);
        EXPECT_EQ(st.stores, 32u);
        EXPECT_EQ(st.ops, (v.len / 64 + 1) * kCompressOps);
        EXPECT_EQ(cycles, v.sandboxedCycles);
    }
}

// ------------------------------------------------- backend invariance

struct KernelBackendCase
{
    const char *suiteName;
    std::size_t kernelIndex;
};

/** §6.1's interpreter probe. */
const Workload kSwitch{"switch", 15, sightglass::runSwitch};

const Workload &
lookup(const KernelBackendCase &param)
{
    return std::string(param.suiteName) == "sightglass"
               ? kSwitch
               : spec::suite()[param.kernelIndex];
}

class KernelBackendInvariance
    : public ::testing::TestWithParam<KernelBackendCase>
{
};

TEST_P(KernelBackendInvariance, ChecksumIdenticalAcrossBackends)
{
    const Workload &workload = lookup(GetParam());
    std::uint64_t reference = 0;
    bool first = true;
    for (sfi::BackendKind kind :
         {sfi::BackendKind::GuardPages, sfi::BackendKind::BoundsCheck,
          sfi::BackendKind::Mask, sfi::BackendKind::Hfi}) {
        vm::VirtualClock clock;
        vm::Mmu mmu(clock);
        core::HfiContext ctx(clock);
        auto sandbox =
            makeSandbox(mmu, ctx, kind, workload.icacheSensitivity);
        ASSERT_TRUE(sandbox);
        std::uint64_t checksum = 0;
        ASSERT_TRUE(sandbox->invoke([&](sfi::Sandbox &s) {
            checksum = workload.run(s, 1, 1234);
        })) << workload.name << " trapped under "
            << backendKindName(kind);
        // A masked access that strays out of bounds wraps silently
        // instead of trapping, so the counters, not invoke, catch it.
        EXPECT_EQ(sandbox->stats().traps, 0u)
            << workload.name << " under " << backendKindName(kind);
        EXPECT_EQ(sandbox->stats().wrappedAccesses, 0u)
            << workload.name << " under " << backendKindName(kind);
        if (first) {
            reference = checksum;
            first = false;
        } else {
            EXPECT_EQ(checksum, reference)
                << workload.name << " diverged under "
                << backendKindName(kind);
        }
    }
    EXPECT_NE(reference, 0u) << workload.name;
}

std::vector<KernelBackendCase>
allKernels()
{
    std::vector<KernelBackendCase> cases{{"sightglass", 0}};
    for (std::size_t i = 0; i < spec::suite().size(); ++i)
        cases.push_back({"spec", i});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelBackendInvariance, ::testing::ValuesIn(allKernels()),
    [](const ::testing::TestParamInfo<KernelBackendCase> &info) {
        std::string name = std::string(info.param.suiteName) + "_" +
                           lookup(info.param).name;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(KernelDeterminism, SeedChangesChecksumScaleKeepsIt)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);

    auto run = [&](std::uint32_t seed) {
        auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
        std::uint64_t sum = 0;
        sandbox->invoke(
            [&](sfi::Sandbox &s) { sum = sightglass::runSwitch(s, 1, seed); });
        return sum;
    };
    EXPECT_NE(run(1), run(2));
    EXPECT_EQ(run(7), run(7));
}

// --------------------------------------------------------------- image

TEST(ImageCodec, QualityNoneIsNearLossless)
{
    // Quality::None is a quantization-step-1 codec pass (the paper's
    // "no compression" level is still JPEG); the integer DCT round
    // trip is near-exact but not bit-exact.
    const auto pixels = image::makeTestImage(64, 48, 5);
    const auto encoded = image::encode(pixels, 64, 48, image::Quality::None);
    const auto decoded = image::decodeReference(encoded);
    ASSERT_EQ(decoded.size(), pixels.size());
    double err = 0;
    for (std::size_t i = 0; i < pixels.size(); ++i)
        err += std::abs(int(decoded[i]) - int(pixels[i]));
    EXPECT_LT(err / static_cast<double>(pixels.size()), 2.5);
}

TEST(ImageCodec, QuantizedDecodeIsClose)
{
    const auto pixels = image::makeTestImage(64, 64, 9);
    for (auto q : {image::Quality::Default, image::Quality::Best}) {
        const auto encoded = image::encode(pixels, 64, 64, q);
        const auto decoded = image::decodeReference(encoded);
        ASSERT_EQ(decoded.size(), pixels.size());
        double err = 0;
        for (std::size_t i = 0; i < pixels.size(); ++i)
            err += std::abs(int(decoded[i]) - int(pixels[i]));
        err /= static_cast<double>(pixels.size());
        EXPECT_LT(err, 16.0) << image::qualityName(q);
        EXPECT_GT(err, 0.0);
    }
}

TEST(ImageCodec, BetterCompressionMeansSmallerBitstream)
{
    const auto pixels = image::makeTestImage(128, 128, 3);
    const auto none = image::encode(pixels, 128, 128, image::Quality::None);
    const auto def =
        image::encode(pixels, 128, 128, image::Quality::Default);
    const auto best = image::encode(pixels, 128, 128, image::Quality::Best);
    EXPECT_LT(best.bits.size(), def.bits.size());
    EXPECT_LT(def.bits.size(), none.bits.size());
}

TEST(ImageCodec, SandboxedDecodeMatchesReferencePixels)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    const auto pixels = image::makeTestImage(48, 32, 11);
    const auto encoded =
        image::encode(pixels, 48, 32, image::Quality::Default);

    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    std::uint64_t sandbox_sum = 0;
    ASSERT_TRUE(sandbox->invoke([&](sfi::Sandbox &s) {
        sandbox_sum = image::decodeSandboxed(s, encoded);
    }));

    // Recompute the same checksum from the reference decode.
    const auto ref = image::decodeReference(encoded);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::uint8_t px : ref) {
        hash ^= px;
        hash *= 0x100000001b3ULL;
    }
    EXPECT_EQ(sandbox_sum, hash);
}

TEST(ImageCodec, DecodeChecksumBackendInvariant)
{
    const auto pixels = image::makeTestImage(64, 40, 21);
    const auto encoded =
        image::encode(pixels, 64, 40, image::Quality::Best);
    std::uint64_t sums[2];
    int at = 0;
    for (auto kind :
         {sfi::BackendKind::GuardPages, sfi::BackendKind::Hfi}) {
        vm::VirtualClock clock;
        vm::Mmu mmu(clock);
        core::HfiContext ctx(clock);
        auto sandbox = makeSandbox(mmu, ctx, kind);
        sandbox->invoke([&](sfi::Sandbox &s) {
            sums[at] = image::decodeSandboxed(s, encoded);
        });
        ++at;
    }
    EXPECT_EQ(sums[0], sums[1]);
}

// ---------------------------------------------------------------- font

TEST(Font, ReflowIsDeterministicAndShapesEverything)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    const std::string text = font::makeTestText(300, 17);

    auto run = [&] {
        auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
        font::ReflowResult res;
        sandbox->invoke([&](sfi::Sandbox &s) {
            res = font::reflowSandboxed(s, text, 16, 800);
        });
        return res;
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_GT(a.lines, 3u);
    // Every non-space character becomes a positioned glyph.
    std::size_t non_space = 0;
    for (char c : text)
        non_space += c != ' ';
    EXPECT_EQ(a.glyphs, non_space);
}

TEST(Font, LargerFontMeansMoreLines)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    const std::string text = font::makeTestText(400, 3);
    auto lines = [&](std::uint32_t size) {
        auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::GuardPages);
        font::ReflowResult res;
        sandbox->invoke([&](sfi::Sandbox &s) {
            res = font::reflowSandboxed(s, text, size, 640);
        });
        return res.lines;
    };
    EXPECT_GT(lines(24), lines(12));
}

// ------------------------------------------------------ FaaS handlers

class FaasWorkloads : public WorkloadFixture
{
};

TEST_F(FaasWorkloads, XmlToJsonProducesJson)
{
    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    const std::string xml = faas::makeXmlDocument(10, 3);
    sandbox->memory().writeBytes(64, xml.data(), xml.size());
    std::uint64_t sum = 0;
    ASSERT_TRUE(sandbox->invoke([&](sfi::Sandbox &s) {
        sum = faas::xmlToJson(s, 64, xml.size());
    }));
    EXPECT_NE(sum, 0u);
    // Deterministic given the same document.
    auto sandbox2 = makeSandbox(mmu, ctx, sfi::BackendKind::GuardPages);
    sandbox2->memory().writeBytes(64, xml.data(), xml.size());
    std::uint64_t sum2 = 0;
    sandbox2->invoke(
        [&](sfi::Sandbox &s) { sum2 = faas::xmlToJson(s, 64, xml.size()); });
    EXPECT_EQ(sum, sum2);
}

TEST_F(FaasWorkloads, CheckSha256DetectsMatchAndMismatch)
{
    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    std::vector<std::uint8_t> payload(256, 0x5a);
    sandbox->memory().writeBytes(64, payload.data(), payload.size());
    const auto good = crypto::sha256(payload.data(), payload.size());
    sandbox->memory().writeBytes(4096, good.data(), 32);

    std::uint64_t match_sum = 0, mismatch_sum = 0;
    sandbox->invoke([&](sfi::Sandbox &s) {
        match_sum = faas::checkSha256(s, 64, payload.size(), 4096);
    });
    // Corrupt the expected digest.
    std::uint8_t bad = good[0] ^ 1;
    sandbox->memory().writeBytes(4096, &bad, 1);
    sandbox->invoke([&](sfi::Sandbox &s) {
        mismatch_sum = faas::checkSha256(s, 64, payload.size(), 4096);
    });
    EXPECT_NE(match_sum, mismatch_sum);
}

TEST_F(FaasWorkloads, ClassifyImageIsDeterministic)
{
    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    const auto img = image::makeTestImage(28, 28, 7);
    sandbox->memory().writeBytes(64, img.data(), img.size());
    std::uint64_t a = 0, b = 0;
    sandbox->invoke([&](sfi::Sandbox &s) {
        a = faas::classifyImage(s, 64, 28, 99);
    });
    auto sandbox2 = makeSandbox(mmu, ctx, sfi::BackendKind::BoundsCheck);
    sandbox2->memory().writeBytes(64, img.data(), img.size());
    sandbox2->invoke([&](sfi::Sandbox &s) {
        b = faas::classifyImage(s, 64, 28, 99);
    });
    EXPECT_EQ(a, b);
}

// ------------------------------------------------ FaaS kernel oracles

/**
 * The image classifier as a plain per-element kernel, the spec the
 * checked kernel in faas_workloads.cc must match on every observable
 * (the pool reads the feature map's border, which the convolution
 * never writes, so a dirty instance's bytes reach the result): per output
 * pixel it loads three 3-pixel input rows and the filter's nine weights,
 * stores one value and charges 31 ops; per pooled pixel it loads two
 * pairs, stores one value and charges 8 ops; the dense layer charges 22
 * ops per feature.
 */
std::uint64_t
classifyImagePerElement(sfi::Sandbox &s, std::uint64_t img_off,
                        std::uint32_t side, std::uint32_t seed)
{
    Arena arena(s, img_off + static_cast<std::uint64_t>(side) * side + 8);
    const std::uint32_t filters = 8;
    const std::uint64_t conv_w = arena.alloc(filters * 9 * 4);
    const std::uint64_t fmap =
        arena.alloc(static_cast<std::uint64_t>(filters) * side * side * 4);
    const std::uint32_t pooled_side = side / 2;
    const std::uint64_t pooled = arena.alloc(
        static_cast<std::uint64_t>(filters) * pooled_side * pooled_side * 4);

    Rng rng(seed);
    for (std::uint64_t i = 0; i < filters * 9; ++i) {
        s.store<std::int32_t>(conv_w + i * 4,
                              static_cast<std::int32_t>(rng.nextBelow(512)) -
                                  256);
    }

    for (std::uint32_t f = 0; f < filters; ++f) {
        for (std::uint32_t y = 1; y + 1 < side; ++y) {
            for (std::uint32_t x = 1; x + 1 < side; ++x) {
                std::uint8_t px[9];
                for (std::uint32_t ky = 0; ky < 3; ++ky)
                    s.loadN(img_off +
                                static_cast<std::uint64_t>(y + ky - 1) *
                                    side +
                                (x - 1),
                            px + ky * 3, 3);
                std::int32_t w[9];
                s.loadN(conv_w + f * 9 * 4, w, 9);
                std::int64_t acc = 0;
                for (int k = 0; k < 9; ++k)
                    acc += static_cast<std::int64_t>(px[k]) * w[k];
                const std::int32_t relu = static_cast<std::int32_t>(
                    std::max<std::int64_t>(acc >> 4, 0));
                s.store<std::int32_t>(
                    fmap + (static_cast<std::uint64_t>(f) * side * side +
                            static_cast<std::uint64_t>(y) * side + x) *
                               4,
                    relu);
                s.chargeOps(9 * 3 + 4);
            }
        }
    }

    for (std::uint32_t f = 0; f < filters; ++f) {
        for (std::uint32_t y = 0; y < pooled_side; ++y) {
            for (std::uint32_t x = 0; x < pooled_side; ++x) {
                std::int32_t best = 0;
                for (std::uint32_t dy = 0; dy < 2; ++dy) {
                    std::int32_t pair[2];
                    s.loadN(fmap + (static_cast<std::uint64_t>(f) * side *
                                        side +
                                    (2 * y + dy) * side + 2 * x) *
                                       4,
                            pair, 2);
                    best = std::max({best, pair[0], pair[1]});
                }
                s.store<std::int32_t>(
                    pooled + (static_cast<std::uint64_t>(f) * pooled_side *
                                  pooled_side +
                              static_cast<std::uint64_t>(y) * pooled_side +
                              x) *
                                 4,
                    best);
                s.chargeOps(8);
            }
        }
    }

    Rng dense_rng(seed ^ 0xd15ea5e);
    std::int64_t logits[10] = {};
    const std::uint64_t feat_count =
        static_cast<std::uint64_t>(filters) * pooled_side * pooled_side;
    std::vector<std::int32_t> features(feat_count);
    s.loadN(pooled, features.data(), feat_count);
    for (std::uint64_t i = 0; i < feat_count; ++i) {
        const std::int32_t v = features[i];
        const std::uint64_t w = dense_rng.next();
        for (int k = 0; k < 10; ++k) {
            logits[k] += static_cast<std::int64_t>(v) *
                         (static_cast<std::int32_t>((w >> (6 * k)) & 63) - 32);
        }
        s.chargeOps(22);
    }

    int winner = 0;
    Checksum sum;
    for (int k = 0; k < 10; ++k) {
        if (logits[k] > logits[winner])
            winner = k;
        sum.mix(static_cast<std::uint64_t>(logits[k]));
    }
    sum.mix(static_cast<std::uint64_t>(winner));
    return sum.value();
}

/**
 * xmlToJson as a per-access loop, the spec its host pass must match:
 * each input byte one load, each output byte one store. The per-depth
 * flags are guarded as the kernel guards them (malformed input can
 * take the depth below 0 or past 15).
 */
std::uint64_t
xmlToJsonPerAccess(sfi::Sandbox &s, std::uint64_t in_off, std::uint64_t in_len)
{
    Arena arena(s, in_off + in_len + 8);
    const std::uint64_t out = arena.alloc(in_len * 2 + 64);

    Checksum sum;
    std::uint64_t at = 0;
    auto emit = [&](char c) {
        s.store<std::uint8_t>(out + at++, static_cast<std::uint8_t>(c));
        sum.mix(static_cast<std::uint8_t>(c));
    };

    std::uint64_t i = 0;
    int depth = 0;
    bool first_at_depth[16] = {};
    const auto flagged = [&] { return depth >= 0 && depth < 16; };
    while (i < in_len) {
        const char c = static_cast<char>(s.load<std::uint8_t>(in_off + i));
        s.chargeOps(4);
        if (c == '<') {
            const bool closing =
                static_cast<char>(s.load<std::uint8_t>(in_off + i + 1)) ==
                '/';
            std::uint64_t j = i + (closing ? 2 : 1);
            std::string tag;
            while (j < in_len) {
                const char t =
                    static_cast<char>(s.load<std::uint8_t>(in_off + j));
                s.chargeOps(3);
                if (t == '>')
                    break;
                tag += t;
                ++j;
            }
            if (closing) {
                emit('}');
                --depth;
            } else {
                if (depth > 0 && flagged() && !first_at_depth[depth])
                    emit(',');
                if (flagged())
                    first_at_depth[depth] = false;
                emit('"');
                for (char t : tag)
                    emit(t);
                emit('"');
                emit(':');
                emit('{');
                ++depth;
                if (flagged())
                    first_at_depth[depth] = true;
            }
            i = j + 1;
        } else {
            if (flagged() && !first_at_depth[depth])
                emit(',');
            if (flagged())
                first_at_depth[depth] = false;
            emit('"');
            emit('v');
            emit('"');
            emit(':');
            while (i < in_len) {
                const char t =
                    static_cast<char>(s.load<std::uint8_t>(in_off + i));
                s.chargeOps(3);
                if (t == '<')
                    break;
                emit(t);
                ++i;
            }
        }
    }
    sum.mix(at);
    return sum.value();
}

/** renderTemplate as a per-access loop, the spec its host pass must match. */
std::uint64_t
renderTemplatePerAccess(sfi::Sandbox &s, std::uint64_t tpl_off,
                        std::uint64_t tpl_len, std::uint64_t rows,
                        std::uint32_t seed)
{
    Arena arena(s, tpl_off + tpl_len + 8);
    const std::uint64_t out = arena.alloc(tpl_len + rows * 96 + 512);

    Rng rng(seed);
    Checksum sum;
    std::uint64_t at = 0;
    auto emit = [&](char c) {
        s.store<std::uint8_t>(out + at++, static_cast<std::uint8_t>(c));
        sum.mix(static_cast<std::uint8_t>(c));
    };
    auto emitStr = [&](const std::string &str) {
        for (char c : str)
            emit(c);
    };
    auto substitute = [&](const std::string &name) {
        if (name == "title")
            emitStr("Order Summary");
        else if (name == "user")
            emitStr("tenant-" + std::to_string(rng.nextBelow(1000)));
        else if (name == "balance")
            emitStr(std::to_string(rng.nextBelow(100000)));
        else if (name == "item")
            emitStr("sku-" + std::to_string(rng.nextBelow(10000)));
        else if (name == "count")
            emitStr(std::to_string(1 + rng.nextBelow(9)));
        else if (name == "total")
            emitStr(std::to_string(rng.nextBelow(50000)));
        else if (name == "footer")
            emitStr("generated in-sandbox");
        else
            emitStr("?");
    };

    std::uint64_t i = 0;
    std::uint64_t loop_start = 0;
    std::uint64_t loop_remaining = 0;
    while (i < tpl_len) {
        const char c = static_cast<char>(s.load<std::uint8_t>(tpl_off + i));
        s.chargeOps(4);
        if (c != '{' || i + 1 >= tpl_len ||
            static_cast<char>(s.load<std::uint8_t>(tpl_off + i + 1)) != '{') {
            emit(c);
            ++i;
            continue;
        }
        std::uint64_t j = i + 2;
        std::string token;
        while (j + 1 < tpl_len) {
            const char t =
                static_cast<char>(s.load<std::uint8_t>(tpl_off + j));
            s.chargeOps(3);
            if (t == '}' &&
                static_cast<char>(s.load<std::uint8_t>(tpl_off + j + 1)) ==
                    '}')
                break;
            token += t;
            ++j;
        }
        i = j + 2;
        if (!token.empty() && token[0] == '#') {
            loop_start = i;
            loop_remaining = rows;
        } else if (!token.empty() && token[0] == '/') {
            if (loop_remaining > 1) {
                --loop_remaining;
                i = loop_start;
            }
        } else {
            substitute(token);
        }
    }
    sum.mix(at);
    return sum.value();
}

/** Everything a kernel run leaves behind that a caller can see. */
struct KernelObserved
{
    std::uint64_t value = 0;
    bool trapped = false;
    std::uint64_t trapOffset = 0;
    std::uint32_t trapWidth = 0;
    bool trapWrite = false;
    sfi::SandboxStats stats;
    std::uint64_t memoryPages = 0;
    vm::Cycles clock = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t dirtyEnd = 0;
    std::vector<std::uint8_t> memory;
};

/** A kernel run on a sandbox whose input is staged at offset 64. */
using Kernel = std::function<std::uint64_t(sfi::Sandbox &)>;

/** How observe() prepares the sandbox a kernel runs on. */
struct KernelSetup
{
    sfi::BackendKind kind = sfi::BackendKind::GuardPages;
    /**
     * Nonzero: an HFI {8, 64}-page sandbox runs while a
     * {stalePages}-page instance's heap region is installed (created
     * after it, not rebound). Such a run is not entered (hfi_enter
     * would reload the region); it traps past the smaller bound.
     */
    std::uint64_t stalePages = 0;
    /**
     * Nonnegative: every byte of the memory holds this value before
     * the input is staged, as a reused instance holds an earlier
     * request's bytes.
     */
    int prefill = -1;
};

/**
 * Run @p kernel on a {4, 64}-page sandbox (see KernelSetup) with
 * @p input at offset 64, and record what it left behind.
 */
KernelObserved
observe(const Kernel &kernel, const KernelSetup &setup,
        const std::vector<std::uint8_t> &input)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    sfi::SandboxOptions opts;
    opts.initialPages = setup.stalePages ? 8 : 4;
    opts.maxPages = 64;
    auto sandbox = std::make_unique<sfi::Sandbox>(mmu, ctx, setup.kind, opts);
    EXPECT_TRUE(sandbox->valid());
    if (setup.prefill >= 0)
        std::memset(sandbox->memory().data(), setup.prefill,
                    sandbox->memory().size());
    sandbox->memory().writeBytes(64, input.data(), input.size());

    KernelObserved obs;
    const auto body = [&](sfi::Sandbox &s) {
        try {
            obs.value = kernel(s);
        } catch (const sfi::SandboxTrap &trap) {
            obs.trapped = true;
            obs.trapOffset = trap.offset();
            obs.trapWidth = trap.width();
            obs.trapWrite = trap.isWrite();
        }
    };
    std::unique_ptr<sfi::Sandbox> smaller;
    if (setup.stalePages) {
        smaller = std::make_unique<sfi::Sandbox>(
            mmu, ctx, setup.kind,
            sfi::SandboxOptions{setup.stalePages, setup.stalePages});
        EXPECT_TRUE(smaller->valid());
        body(*sandbox);
        sandbox->exit();
    } else {
        EXPECT_TRUE(sandbox->invoke(body));
    }
    obs.stats = sandbox->stats();
    obs.memoryPages = sandbox->memory().pages();
    obs.clock = clock.now();
    obs.pageFaults = mmu.stats().pageFaults;
    const sfi::LinearMemory &mem = sandbox->memory();
    obs.dirtyEnd = mem.dirtyEnd();
    obs.memory.assign(mem.data(), mem.data() + mem.size());
    return obs;
}

void
expectSameObservables(const KernelObserved &got, const KernelObserved &want)
{
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.trapped, want.trapped);
    EXPECT_EQ(got.trapOffset, want.trapOffset);
    EXPECT_EQ(got.trapWidth, want.trapWidth);
    EXPECT_EQ(got.trapWrite, want.trapWrite);
    EXPECT_EQ(got.stats.loads, want.stats.loads);
    EXPECT_EQ(got.stats.stores, want.stats.stores);
    EXPECT_EQ(got.stats.ops, want.stats.ops);
    EXPECT_EQ(got.stats.growCalls, want.stats.growCalls);
    EXPECT_EQ(got.stats.traps, want.stats.traps);
    EXPECT_EQ(got.stats.wrappedAccesses, want.stats.wrappedAccesses);
    EXPECT_EQ(got.stats.invocations, want.stats.invocations);
    EXPECT_EQ(got.memoryPages, want.memoryPages);
    EXPECT_EQ(got.clock, want.clock);
    EXPECT_EQ(got.pageFaults, want.pageFaults);
    EXPECT_EQ(got.dirtyEnd, want.dirtyEnd);
    ASSERT_EQ(got.memory.size(), want.memory.size());
    const auto diff =
        std::mismatch(got.memory.begin(), got.memory.end(), want.memory.begin());
    EXPECT_TRUE(diff.first == got.memory.end())
        << "memory differs at offset " << (diff.first - got.memory.begin());
}

std::vector<std::uint8_t>
bytesOf(const std::string &text)
{
    return {text.begin(), text.end()};
}

std::string
backendParamName(const ::testing::TestParamInfo<sfi::BackendKind> &info)
{
    std::string name = sfi::backendKindName(info.param);
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

const auto kAllBackends =
    ::testing::Values(sfi::BackendKind::GuardPages,
                      sfi::BackendKind::BoundsCheck, sfi::BackendKind::Mask,
                      sfi::BackendKind::Hfi);

using Classifier = std::uint64_t (*)(sfi::Sandbox &, std::uint64_t,
                                     std::uint32_t, std::uint32_t);

/** A classifier at @p side x @p side, weight seed 99. */
Kernel
classifier(Classifier classify, std::uint32_t side)
{
    return [=](sfi::Sandbox &s) { return classify(s, 64, side, 99); };
}

class ClassifyImageOracle : public ::testing::TestWithParam<sfi::BackendKind>
{
};

TEST_P(ClassifyImageOracle, RowKernelMatchesPerElementKernel)
{
    for (std::uint32_t side : {28u, 96u, 29u, 2u}) {
        SCOPED_TRACE(side);
        const auto img = image::makeTestImage(side, side, 7);
        const KernelSetup setup{GetParam()};
        const auto want =
            observe(classifier(classifyImagePerElement, side), setup, img);
        const auto got =
            observe(classifier(faas::classifyImage, side), setup, img);
        EXPECT_FALSE(want.trapped);
        EXPECT_NE(want.value, 0u);
        expectSameObservables(got, want);
    }
}

TEST_P(ClassifyImageOracle, DirtyInstanceMatchesPerElementKernel)
{
    // The pool reads the feature map's border, which the convolution
    // never writes: on a reused instance the result depends on the
    // bytes an earlier request left there. At 96x96 the map outgrows
    // the first 256 KiB, so later filters' borders sit in grown,
    // zeroed pages.
    for (std::uint32_t side : {28u, 96u}) {
        SCOPED_TRACE(side);
        const auto img = image::makeTestImage(side, side, 7);
        const auto clean = observe(classifier(faas::classifyImage, side),
                                   KernelSetup{GetParam()}, img);
        const KernelSetup dirty{GetParam(), 0, 0x22};
        const auto want =
            observe(classifier(classifyImagePerElement, side), dirty, img);
        const auto got =
            observe(classifier(faas::classifyImage, side), dirty, img);
        EXPECT_FALSE(want.trapped);
        EXPECT_NE(want.value, clean.value);
        expectSameObservables(got, want);
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, ClassifyImageOracle, kAllBackends,
                         backendParamName);

TEST(ClassifyImageStaleHfiRegion, TrapsOnTheSameElementAsPerElement)
{
    // A 64 KiB bound cuts the convolution's feature map (at 96x96), a
    // 320 KiB bound the pooled map; at 28x28 every span fits in 64 KiB.
    const struct
    {
        std::uint32_t side;
        std::uint64_t stalePages;
        bool traps;
    } cases[] = {{28, 1, false}, {96, 1, true}, {96, 5, true}};
    for (const auto &c : cases) {
        SCOPED_TRACE(testing::Message() << c.side << "x" << c.side << " under "
                                        << c.stalePages << " pages");
        const auto img = image::makeTestImage(c.side, c.side, 7);
        const KernelSetup setup{sfi::BackendKind::Hfi, c.stalePages};
        const auto want =
            observe(classifier(classifyImagePerElement, c.side), setup, img);
        const auto got =
            observe(classifier(faas::classifyImage, c.side), setup, img);
        EXPECT_EQ(want.trapped, c.traps);
        expectSameObservables(got, want);
    }
}

using TextKernel = std::uint64_t (*)(sfi::Sandbox &, std::uint64_t,
                                     std::uint64_t);

/** xmlToJson (or its spec) over the @p len input bytes at offset 64. */
Kernel
xmlKernel(TextKernel kernel, std::uint64_t len)
{
    return [=](sfi::Sandbox &s) { return kernel(s, 64, len); };
}

using RenderKernel = std::uint64_t (*)(sfi::Sandbox &, std::uint64_t,
                                       std::uint64_t, std::uint64_t,
                                       std::uint32_t);

/** renderTemplate (or its spec) with @p rows rows, data seed 5. */
Kernel
htmlKernel(RenderKernel kernel, std::uint64_t len, std::uint64_t rows)
{
    return [=](sfi::Sandbox &s) { return kernel(s, 64, len, rows, 5); };
}

std::string
repeat(const std::string &unit, int times)
{
    std::string out;
    for (int i = 0; i < times; ++i)
        out += unit;
    return out;
}

class TextKernelOracle : public ::testing::TestWithParam<sfi::BackendKind>
{
};

TEST_P(TextKernelOracle, XmlToJsonMatchesPerAccessLoop)
{
    const std::string inputs[] = {
        faas::makeXmlDocument(40, 3),
        faas::makeXmlDocument(220, 4), // Table 1's size: four input pages
        "",
        faas::makeXmlDocument(3, 5) + "<", // peeks one byte past the input
        "<orders><order><id>12</id><qty",  // ends inside a tag name
        // 16 output bytes per 7 input: past the 2 * len + 64 buffer.
        repeat("x<>x</>", 64),
        // Deeper than the 16 flagged depths, then below depth 0.
        repeat("<a>", 20) + "t" + repeat("</a>", 25) + "u<b>v",
    };
    for (const std::string &xml : inputs) {
        SCOPED_TRACE(xml.substr(0, 40));
        // A dirty instance: a '/' right past the input turns the
        // trailing '<' into a closing tag.
        for (int prefill : {-1, int{'/'}}) {
            SCOPED_TRACE(prefill);
            const KernelSetup setup{GetParam(), 0, prefill};
            const auto want = observe(
                xmlKernel(xmlToJsonPerAccess, xml.size()), setup, bytesOf(xml));
            const auto got = observe(xmlKernel(faas::xmlToJson, xml.size()),
                                     setup, bytesOf(xml));
            EXPECT_FALSE(want.trapped);
            expectSameObservables(got, want);
        }
    }
}

TEST_P(TextKernelOracle, RenderTemplateMatchesPerAccessLoop)
{
    const std::string tpl = faas::makeHtmlTemplate(0);
    const struct
    {
        std::string tpl;
        std::uint64_t rows;
    } cases[] = {
        {tpl, 24},
        {tpl, 0},
        {"", 24},
        {tpl + "{", 3},                    // a lone brace at the end
        {"<p>{{title}} {{user", 3},        // ends inside a token
        {"{{#r}}" + repeat("{{footer}}", 8) + "{{/r}}", 24}, // past the buffer
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.tpl.substr(0, 40));
        const KernelSetup setup{GetParam()};
        const auto want =
            observe(htmlKernel(renderTemplatePerAccess, c.tpl.size(), c.rows),
                    setup, bytesOf(c.tpl));
        const auto got =
            observe(htmlKernel(faas::renderTemplate, c.tpl.size(), c.rows),
                    setup, bytesOf(c.tpl));
        EXPECT_FALSE(want.trapped);
        expectSameObservables(got, want);
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, TextKernelOracle, kAllBackends,
                         backendParamName);

TEST(TextKernelStaleHfiRegion, TrapsOnTheSameAccessAsPerAccessLoop)
{
    // Under a 64 KiB bound: a 700-record document's output runs past it
    // mid-document; a 1200-record document's output starts past it, so
    // its first store traps; 2000 template rows render past it, 200 do
    // not.
    for (std::uint64_t records : {700u, 1200u}) {
        SCOPED_TRACE(records);
        const std::string xml = faas::makeXmlDocument(records, 3);
        const KernelSetup setup{sfi::BackendKind::Hfi, 1};
        const auto want = observe(xmlKernel(xmlToJsonPerAccess, xml.size()),
                                  setup, bytesOf(xml));
        const auto got = observe(xmlKernel(faas::xmlToJson, xml.size()),
                                 setup, bytesOf(xml));
        EXPECT_TRUE(want.trapped);
        EXPECT_TRUE(want.trapWrite);
        EXPECT_EQ(want.stats.stores > 0, records == 700);
        expectSameObservables(got, want);
    }
    const std::string tpl = faas::makeHtmlTemplate(0);
    for (std::uint64_t rows : {200u, 2000u}) {
        SCOPED_TRACE(rows);
        const KernelSetup setup{sfi::BackendKind::Hfi, 1};
        const auto want =
            observe(htmlKernel(renderTemplatePerAccess, tpl.size(), rows),
                    setup, bytesOf(tpl));
        const auto got = observe(
            htmlKernel(faas::renderTemplate, tpl.size(), rows), setup,
            bytesOf(tpl));
        EXPECT_EQ(want.trapped, rows > 200);
        EXPECT_EQ(want.trapWrite, rows > 200);
        expectSameObservables(got, want);
    }
}

TEST_F(FaasWorkloads, TemplateRenderingExpandsLoops)
{
    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    const std::string tpl = faas::makeHtmlTemplate(0);
    sandbox->memory().writeBytes(64, tpl.data(), tpl.size());
    std::uint64_t small = 0, large = 0;
    sandbox->invoke([&](sfi::Sandbox &s) {
        small = faas::renderTemplate(s, 64, tpl.size(), 2, 5);
    });
    auto sandbox2 = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    sandbox2->memory().writeBytes(64, tpl.data(), tpl.size());
    sandbox2->invoke([&](sfi::Sandbox &s) {
        large = faas::renderTemplate(s, 64, tpl.size(), 20, 5);
    });
    EXPECT_NE(small, large); // more rows, different (longer) output
}

} // namespace
