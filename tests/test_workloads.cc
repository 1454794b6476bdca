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

TEST(Crypto, Sha256EmptyString)
{
    const auto digest = crypto::sha256(nullptr, 0);
    const std::uint8_t expected[] = {0xe3, 0xb0, 0xc4, 0x42, 0x98, 0xfc,
                                     0x1c, 0x14, 0x9a, 0xfb, 0xf4, 0xc8,
                                     0x99, 0x6f, 0xb9, 0x24};
    EXPECT_EQ(std::memcmp(digest.data(), expected, sizeof(expected)), 0);
}

TEST(Crypto, Sha256Abc)
{
    // FIPS 180-2 test vector.
    const char *msg = "abc";
    const auto digest =
        crypto::sha256(reinterpret_cast<const std::uint8_t *>(msg), 3);
    const std::uint8_t expected[] = {0xba, 0x78, 0x16, 0xbf, 0x8f, 0x01,
                                     0xcf, 0xea, 0x41, 0x41, 0x40, 0xde,
                                     0x5d, 0xae, 0x22, 0x23, 0xb0, 0x03,
                                     0x61, 0xa3, 0x96, 0x17, 0x7a, 0x9c};
    EXPECT_EQ(std::memcmp(digest.data(), expected, sizeof(expected)), 0);
}

TEST(Crypto, Sha256LongInput)
{
    // FIPS 180-2: one million 'a' has a known digest; use the two-block
    // "abcdbcde..." vector instead to keep it fast.
    const char *msg =
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    const auto digest = crypto::sha256(
        reinterpret_cast<const std::uint8_t *>(msg), std::strlen(msg));
    const std::uint8_t expected[] = {0x24, 0x8d, 0x6a, 0x61, 0xd2, 0x06,
                                     0x38, 0xb8, 0xe5, 0xc0, 0x26, 0x93,
                                     0x0c, 0x3e, 0x60, 0x39};
    EXPECT_EQ(std::memcmp(digest.data(), expected, sizeof(expected)), 0);
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

// ------------------------------------------- classifyImage row oracle

/**
 * The image classifier as a plain per-element kernel, the spec the row
 * kernel in faas_workloads.cc must match on every observable: per output
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

/** Everything a classifier run leaves behind that a caller can see. */
struct ClassifyObserved
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
};

using Classifier = std::uint64_t (*)(sfi::Sandbox &, std::uint64_t,
                                     std::uint32_t, std::uint32_t);

/**
 * Classify a @p side x @p side image on a fresh {4, 64}-page sandbox, or,
 * when @p stale_pages is nonzero, on an HFI {8, 64}-page sandbox that
 * runs while a {stale_pages}-page instance's heap region is installed:
 * created after it, not rebound. Such a run is not entered (hfi_enter
 * would reload the region); it traps past the smaller bound.
 */
ClassifyObserved
classifyObserved(Classifier classify, sfi::BackendKind kind,
                 std::uint32_t side, std::uint64_t stale_pages = 0)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    sfi::SandboxOptions opts;
    opts.initialPages = stale_pages ? 8 : 4;
    opts.maxPages = 64;
    auto sandbox = std::make_unique<sfi::Sandbox>(mmu, ctx, kind, opts);
    EXPECT_TRUE(sandbox->valid());
    const auto img = image::makeTestImage(side, side, 7);
    sandbox->memory().writeBytes(64, img.data(), img.size());

    ClassifyObserved obs;
    const auto body = [&](sfi::Sandbox &s) {
        try {
            obs.value = classify(s, 64, side, 99);
        } catch (const sfi::SandboxTrap &trap) {
            obs.trapped = true;
            obs.trapOffset = trap.offset();
            obs.trapWidth = trap.width();
            obs.trapWrite = trap.isWrite();
        }
    };
    std::unique_ptr<sfi::Sandbox> smaller;
    if (stale_pages) {
        smaller = std::make_unique<sfi::Sandbox>(
            mmu, ctx, kind, sfi::SandboxOptions{stale_pages, stale_pages});
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
    return obs;
}

void
expectSameObservables(const ClassifyObserved &got,
                      const ClassifyObserved &want)
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
}

class ClassifyImageOracle : public ::testing::TestWithParam<sfi::BackendKind>
{
};

TEST_P(ClassifyImageOracle, RowKernelMatchesPerElementKernel)
{
    for (std::uint32_t side : {28u, 96u}) {
        SCOPED_TRACE(side);
        const auto want =
            classifyObserved(classifyImagePerElement, GetParam(), side);
        const auto got =
            classifyObserved(faas::classifyImage, GetParam(), side);
        EXPECT_FALSE(want.trapped);
        EXPECT_NE(want.value, 0u);
        expectSameObservables(got, want);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ClassifyImageOracle,
    ::testing::Values(sfi::BackendKind::GuardPages,
                      sfi::BackendKind::BoundsCheck, sfi::BackendKind::Mask,
                      sfi::BackendKind::Hfi),
    [](const ::testing::TestParamInfo<sfi::BackendKind> &info) {
        std::string name = sfi::backendKindName(info.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

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
        const auto want =
            classifyObserved(classifyImagePerElement, sfi::BackendKind::Hfi,
                             c.side, c.stalePages);
        const auto got = classifyObserved(
            faas::classifyImage, sfi::BackendKind::Hfi, c.side, c.stalePages);
        EXPECT_EQ(want.trapped, c.traps);
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
