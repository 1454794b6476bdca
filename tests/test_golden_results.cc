/**
 * @file
 * Golden pins for every headline number in EXPERIMENTS.md.
 *
 * All results below come from deterministic virtual-clock or modeled-
 * cycle computations, so they are exactly reproducible; the tolerances
 * are the display precision the numbers are reported at, not noise
 * allowances. Any refactor of the simulator, backends, or platform that
 * shifts a modeled number fails here before it can silently rewrite the
 * paper-comparison tables:
 *
 *  - §6.1 heap growth: 10.92 s (guard pages) vs 370 ms (HFI), ~29.5x.
 *  - §6.3.1 FaaS teardown: 25.6 / 23.1 / 31.1 µs per sandbox.
 *  - Table 1: HFI tail-latency deltas +0.15/+0.00/+0.01/+1.16%, Swivel
 *    +34.3/+1.1/+10.4/+73.5%, with the Swivel binary bloat.
 *  - Fig 7: 4-cycle hit on the secret without HFI, flat 80-cycle misses
 *    with HFI; §3.4 exit-bypass postures.
 *  - Fig 2 kernel suite: exact modeled cycle and instruction counts for
 *    every kernel, mode, and scale the throughput bench runs.
 *
 * The rows the remaining deterministic benches print (Fig 3, §6.1
 * register reservation, §6.2/Fig 4, §6.3.2 with its multi-memory
 * footprint, §6.4.1, Fig 5 and the ablations) are pinned byte for byte
 * by the BenchStdout.* tests (tests/bench_stdout/).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/context.h"
#include "serve/engine.h"
#include "sfi/backend.h"
#include "sfi/runtime.h"
#include "sim/kernels.h"
#include "sim/pipeline.h"
#include "spectre/attacker.h"
#include "vm/mmu.h"
#include "workloads/table1.h"

namespace
{

using namespace hfi;

// ---------------------------------------------------------------------
// §6.1: heap growth, 1 page -> 4 GiB in 64 KiB increments.
// ---------------------------------------------------------------------

/** Same loop as bench/heap_growth.cc for one backend. */
double
heapGrowthSeconds(sfi::BackendKind kind)
{
    constexpr std::uint64_t total_pages = 65536;
    constexpr double grow_runtime_ns = 5640.0;

    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    sfi::Backend backend(mmu, ctx, kind);
    EXPECT_TRUE(backend.create(1, total_pages));
    const double t0 = clock.nowNs();
    for (std::uint64_t p = 1; p < total_pages; ++p) {
        clock.tick(clock.nsToCycles(grow_runtime_ns));
        backend.grow(p, p + 1);
    }
    return (clock.nowNs() - t0) / 1e9;
}

TEST(GoldenResults, HeapGrowthSection61)
{
    const double guard_sec = heapGrowthSeconds(sfi::BackendKind::GuardPages);
    const double hfi_sec = heapGrowthSeconds(sfi::BackendKind::Hfi);

    EXPECT_NEAR(guard_sec, 10.92, 0.005);
    EXPECT_NEAR(hfi_sec * 1e3, 370.0, 0.5);
    EXPECT_NEAR(guard_sec / hfi_sec, 29.5, 0.05);
}

// ---------------------------------------------------------------------
// §6.3.1: per-sandbox teardown cost.
// ---------------------------------------------------------------------

/** Same loop as bench/faas_teardown.cc. */
double
teardownPerSandboxUs(sfi::BackendKind kind, sfi::ReclaimPolicy policy,
                     std::size_t batch)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock, 48);
    core::HfiContext ctx(clock);
    sfi::RuntimeConfig config;
    config.backend = kind;
    sfi::Runtime runtime(mmu, ctx, config);

    constexpr int kSandboxes = 2000;
    std::vector<std::unique_ptr<sfi::Sandbox>> owned;
    std::vector<sfi::Sandbox *> raw;
    owned.reserve(kSandboxes);
    for (int i = 0; i < kSandboxes; ++i) {
        auto sandbox = kind == sfi::BackendKind::GuardPages
                           ? runtime.createSandbox({1, 65536})
                           : runtime.createSandbox({1, 16});
        if (!sandbox)
            return -1;
        sandbox->invoke([](sfi::Sandbox &s) {
            for (std::uint64_t off = 0; off < 64 * 1024; off += 4096)
                s.store<std::uint64_t>(off, 0x746c7561666564ULL);
        });
        raw.push_back(sandbox.get());
        owned.push_back(std::move(sandbox));
    }

    const double t0 = clock.nowNs();
    runtime.reclaim(raw, policy, batch);
    return (clock.nowNs() - t0) / 1e3 / kSandboxes;
}

TEST(GoldenResults, FaasTeardownSection631)
{
    EXPECT_NEAR(teardownPerSandboxUs(sfi::BackendKind::GuardPages,
                                     sfi::ReclaimPolicy::Stock, 1),
                25.6, 0.05);
    EXPECT_NEAR(teardownPerSandboxUs(sfi::BackendKind::Hfi,
                                     sfi::ReclaimPolicy::Batched, 32),
                23.1, 0.05);
    EXPECT_NEAR(teardownPerSandboxUs(sfi::BackendKind::GuardPages,
                                     sfi::ReclaimPolicy::Batched, 32),
                31.1, 0.05);
}

// ---------------------------------------------------------------------
// Table 1: Spectre protection vs FaaS tail latency.
// ---------------------------------------------------------------------

/**
 * Pinned outcomes per workload, in table1Workloads() order: percent
 * tail-latency increase over Unsafe, and binary sizes in MiB at the
 * bench's 0.1 MiB display precision.
 */
struct Table1Pins
{
    double hfiTailDeltaPct;
    double swivelTailDeltaPct;
    double stockBinMib;
    double swivelBinMib;
};

constexpr Table1Pins kTable1Pins[] = {
    {0.15, 34.3, 3.5, 4.1},   // XML to JSON
    {0.00, 1.1, 34.3, 34.5},  // Image classification
    {0.01, 10.4, 3.9, 4.6},   // Check SHA-256
    {1.16, 73.5, 3.6, 4.2},   // Templated HTML
};

double
table1TailNs(const workloads::Table1Workload &workload, serve::Scheme scheme)
{
    return serve::ServeEngine(workloads::table1Config(workload, scheme),
                              workload.handler)
        .run()
        .latency.p99;
}

/**
 * Table 1's row for handler @p i: tail-latency deltas and binary sizes.
 * One test case per handler, so ctest runs the four rows in parallel.
 */
void
expectTable1Row(std::size_t i)
{
    using serve::Scheme;
    const auto list = workloads::table1Workloads();
    ASSERT_EQ(list.size(), std::size(kTable1Pins));
    const auto &workload = list[i];
    const Table1Pins &pins = kTable1Pins[i];
    SCOPED_TRACE(workload.name);
    const double unsafe_tail = table1TailNs(workload, Scheme::Unsafe);
    const double hfi_tail = table1TailNs(workload, Scheme::HfiNative);
    const double swivel_tail = table1TailNs(workload, Scheme::Swivel);

    EXPECT_NEAR(100.0 * (hfi_tail / unsafe_tail - 1.0), pins.hfiTailDeltaPct,
                0.005);
    EXPECT_NEAR(100.0 * (swivel_tail / unsafe_tail - 1.0),
                pins.swivelTailDeltaPct, 0.05);

    // The paper's bloat story: HFI adds nothing, Swivel ~0.6 MiB.
    const auto mib = [&](Scheme scheme) {
        return static_cast<double>(
                   workloads::table1BinaryBytes(workload, scheme)) /
               (1 << 20);
    };
    EXPECT_EQ(workloads::table1BinaryBytes(workload, Scheme::HfiNative),
              workloads::table1BinaryBytes(workload, Scheme::Unsafe));
    EXPECT_NEAR(mib(Scheme::Unsafe), pins.stockBinMib, 0.05);
    EXPECT_NEAR(mib(Scheme::Swivel), pins.swivelBinMib, 0.05);
}

TEST(GoldenResults, Table1XmlToJson) { expectTable1Row(0); }
TEST(GoldenResults, Table1ImageClassification) { expectTable1Row(1); }
TEST(GoldenResults, Table1CheckSha256) { expectTable1Row(2); }
TEST(GoldenResults, Table1TemplatedHtml) { expectTable1Row(3); }

// ---------------------------------------------------------------------
// Fig 7 / §5.3: Spectre PoC probe latencies.
// ---------------------------------------------------------------------

TEST(GoldenResults, Fig7SpectreProbeLatencies)
{
    for (const auto variant :
         {spectre::Variant::Pht, spectre::Variant::Btb}) {
        const std::uint8_t secret =
            variant == spectre::Variant::Pht ? 'I' : 'S';
        SCOPED_TRACE(variant == spectre::Variant::Pht ? "pht" : "btb");

        const auto open_run = spectre::runAttack(variant, false, secret);
        EXPECT_TRUE(open_run.secretLeaked);
        EXPECT_EQ(open_run.probeLatency[secret], 4u); // dcache hit
        for (unsigned g = 0; g < 256; ++g) {
            if (g != secret) {
                EXPECT_GE(open_run.probeLatency[g], open_run.threshold)
                    << "guess " << g;
            }
        }

        const auto hfi_run = spectre::runAttack(variant, true, secret);
        EXPECT_FALSE(hfi_run.secretLeaked);
        for (unsigned g = 0; g < 256; ++g)
            EXPECT_EQ(hfi_run.probeLatency[g], 80u) << "guess " << g;
    }
}

TEST(GoldenResults, ExitBypassPostures)
{
    // §3.4: only the unserialized exit leaks.
    EXPECT_TRUE(spectre::runExitBypassAttack(
                    spectre::ExitPosture::Unserialized, 'X')
                    .secretLeaked);
    EXPECT_FALSE(spectre::runExitBypassAttack(
                     spectre::ExitPosture::Serialized, 'X')
                     .secretLeaked);
    EXPECT_FALSE(spectre::runExitBypassAttack(
                     spectre::ExitPosture::SwitchOnExit, 'X')
                     .secretLeaked);
}

// ---------------------------------------------------------------------
// Fig 2 kernels: exact modeled cycle/instruction counts.
// ---------------------------------------------------------------------

struct GoldenKernelRow
{
    const char *name;
    sim::kernels::Mode mode;
    std::uint64_t scale;
    std::uint64_t cycles;
    std::uint64_t instructions;
};

// Captured from the seed-era simulator; the hot-path rewrite (event-
// driven clock, µop predecode, ring buffers) must reproduce every row
// bit for bit.
const GoldenKernelRow kGoldenKernels[] = {
    {"blake3-scalar", sim::kernels::Mode::HfiHardware, 1, 22792ull, 32814ull},
    {"blake3-scalar", sim::kernels::Mode::HfiEmulation, 1, 22896ull, 32812ull},
    {"ackermann", sim::kernels::Mode::HfiHardware, 1, 59718ull, 109215ull},
    {"ackermann", sim::kernels::Mode::HfiEmulation, 1, 60017ull, 109213ull},
    {"base64", sim::kernels::Mode::HfiHardware, 1, 89429ull, 184015ull},
    {"base64", sim::kernels::Mode::HfiEmulation, 1, 93525ull, 184013ull},
    {"ctype", sim::kernels::Mode::HfiHardware, 1, 122695ull, 240015ull},
    {"ctype", sim::kernels::Mode::HfiEmulation, 1, 122799ull, 240013ull},
    {"fib2", sim::kernels::Mode::HfiHardware, 1, 24249ull, 28018ull},
    {"fib2", sim::kernels::Mode::HfiEmulation, 1, 25354ull, 28016ull},
    {"gimli", sim::kernels::Mode::HfiHardware, 1, 23492ull, 34114ull},
    {"gimli", sim::kernels::Mode::HfiEmulation, 1, 23595ull, 34112ull},
    {"keccak", sim::kernels::Mode::HfiHardware, 1, 21467ull, 30514ull},
    {"keccak", sim::kernels::Mode::HfiEmulation, 1, 21572ull, 30512ull},
    {"memmove", sim::kernels::Mode::HfiHardware, 1, 63987ull, 123489ull},
    {"memmove", sim::kernels::Mode::HfiEmulation, 1, 70171ull, 123487ull},
    {"minicsv", sim::kernels::Mode::HfiHardware, 1, 114241ull, 249883ull},
    {"minicsv", sim::kernels::Mode::HfiEmulation, 1, 114574ull, 249881ull},
    {"nestedloop", sim::kernels::Mode::HfiHardware, 1, 236054ull, 288914ull},
    {"nestedloop", sim::kernels::Mode::HfiEmulation, 1, 236155ull, 288912ull},
    {"random", sim::kernels::Mode::HfiHardware, 1, 121859ull, 120015ull},
    {"random", sim::kernels::Mode::HfiEmulation, 1, 131979ull, 120013ull},
    {"ratelimit", sim::kernels::Mode::HfiHardware, 1, 367653ull, 254200ull},
    {"ratelimit", sim::kernels::Mode::HfiEmulation, 1, 367772ull, 254198ull},
    {"sieve", sim::kernels::Mode::HfiHardware, 1, 48726ull, 160214ull},
    {"sieve", sim::kernels::Mode::HfiEmulation, 1, 48904ull, 160212ull},
    {"switch", sim::kernels::Mode::HfiHardware, 1, 1366165ull, 148356ull},
    {"switch", sim::kernels::Mode::HfiEmulation, 1, 1408302ull, 148354ull},
    {"xblabla20", sim::kernels::Mode::HfiHardware, 1, 35869ull, 50015ull},
    {"xblabla20", sim::kernels::Mode::HfiEmulation, 1, 38474ull, 50013ull},
    {"xchacha20", sim::kernels::Mode::HfiHardware, 1, 35869ull, 50015ull},
    {"xchacha20", sim::kernels::Mode::HfiEmulation, 1, 38474ull, 50013ull},
    {"blake3-scalar", sim::kernels::Mode::HfiHardware, 2, 45192ull, 65614ull},
    {"blake3-scalar", sim::kernels::Mode::HfiEmulation, 2, 45296ull, 65612ull},
    {"ackermann", sim::kernels::Mode::HfiHardware, 2, 119318ull, 218415ull},
    {"ackermann", sim::kernels::Mode::HfiEmulation, 2, 119717ull, 218413ull},
    {"base64", sim::kernels::Mode::HfiHardware, 2, 177429ull, 368015ull},
    {"base64", sim::kernels::Mode::HfiEmulation, 2, 185525ull, 368013ull},
    {"ctype", sim::kernels::Mode::HfiHardware, 2, 242695ull, 480015ull},
    {"ctype", sim::kernels::Mode::HfiEmulation, 2, 242799ull, 480013ull},
    {"fib2", sim::kernels::Mode::HfiHardware, 2, 48249ull, 56018ull},
    {"fib2", sim::kernels::Mode::HfiEmulation, 2, 50354ull, 56016ull},
    {"gimli", sim::kernels::Mode::HfiHardware, 2, 46592ull, 68214ull},
    {"gimli", sim::kernels::Mode::HfiEmulation, 2, 46695ull, 68212ull},
    {"keccak", sim::kernels::Mode::HfiHardware, 2, 42467ull, 61014ull},
    {"keccak", sim::kernels::Mode::HfiEmulation, 2, 42572ull, 61012ull},
    {"memmove", sim::kernels::Mode::HfiHardware, 2, 125642ull, 246964ull},
    {"memmove", sim::kernels::Mode::HfiEmulation, 2, 137958ull, 246962ull},
    {"minicsv", sim::kernels::Mode::HfiHardware, 2, 226159ull, 499747ull},
    {"minicsv", sim::kernels::Mode::HfiEmulation, 2, 226492ull, 499745ull},
    {"nestedloop", sim::kernels::Mode::HfiHardware, 2, 471854ull, 577814ull},
    {"nestedloop", sim::kernels::Mode::HfiEmulation, 2, 471955ull, 577812ull},
    {"random", sim::kernels::Mode::HfiHardware, 2, 241859ull, 240015ull},
    {"random", sim::kernels::Mode::HfiEmulation, 2, 261979ull, 240013ull},
    {"ratelimit", sim::kernels::Mode::HfiHardware, 2, 758863ull, 508259ull},
    {"ratelimit", sim::kernels::Mode::HfiEmulation, 2, 758982ull, 508257ull},
    {"sieve", sim::kernels::Mode::HfiHardware, 2, 97326ull, 320414ull},
    {"sieve", sim::kernels::Mode::HfiEmulation, 2, 97504ull, 320412ull},
    {"switch", sim::kernels::Mode::HfiHardware, 2, 2733174ull, 296673ull},
    {"switch", sim::kernels::Mode::HfiEmulation, 2, 2817492ull, 296671ull},
    {"xblabla20", sim::kernels::Mode::HfiHardware, 2, 70869ull, 100015ull},
    {"xblabla20", sim::kernels::Mode::HfiEmulation, 2, 75974ull, 100013ull},
    {"xchacha20", sim::kernels::Mode::HfiHardware, 2, 70869ull, 100015ull},
    {"xchacha20", sim::kernels::Mode::HfiEmulation, 2, 75974ull, 100013ull},
};

TEST(GoldenResults, Fig2KernelCycleCounts)
{
    const auto &suite = sim::kernels::suite();
    for (const auto &row : kGoldenKernels) {
        const auto it = std::find_if(
            suite.begin(), suite.end(),
            [&row](const auto &k) { return k.name == row.name; });
        ASSERT_NE(it, suite.end()) << row.name;
        SCOPED_TRACE(std::string(row.name) +
                     (row.mode == sim::kernels::Mode::HfiHardware
                          ? "/hw/"
                          : "/emu/") +
                     std::to_string(row.scale));

        sim::Pipeline pipe(it->build(row.mode, row.scale));
        it->stage(pipe.memory(), row.scale, 42);
        const auto res = pipe.run(500'000'000);
        EXPECT_EQ(res.cycles, row.cycles);
        EXPECT_EQ(res.instructions, row.instructions);
        EXPECT_TRUE(res.halted);
    }
}

} // namespace
