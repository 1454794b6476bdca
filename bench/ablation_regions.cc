/**
 * @file
 * Ablation: region-register pressure.
 *
 * HFI provides four explicit regions (footnote 5: "the region count was
 * based on experience sandboxing code in production settings") and the
 * paper's multi-memory discussion (§3.3.1) expects runtimes to
 * "multiplex HFI's (finite) registers among a larger number of
 * multi-memories". This sweep quantifies that choice: a workload that
 * round-robins accesses across K distinct memories pays one
 * hfi_set_region per memory switch once K exceeds the register count.
 * Memories are bound to slots by sfi::LruBinder, the policy the
 * runtime's multi-memory uses; on this cyclic order it misses exactly
 * where FIFO would.
 */

#include <cstdio>

#include "core/checker.h"
#include "core/context.h"
#include "sfi/lru_binder.h"

namespace
{

using namespace hfi;
using namespace hfi::core;

/**
 * Round-robin over @p memories memories with @p switches memory
 * switches, multiplexed over @p slots explicit regions (LRU).
 * @return virtual nanoseconds.
 */
double
runMultiplexed(unsigned memories, unsigned slots, unsigned switches)
{
    vm::VirtualClock clock;
    HfiContext ctx(clock);

    // One 64 KiB memory per tenant, laid out contiguously.
    auto regionFor = [](unsigned memory) {
        ExplicitDataRegion r;
        r.baseAddress = 0x10000000ULL + memory * (1ULL << 16);
        r.bound = 1ULL << 16;
        r.permRead = true;
        r.permWrite = true;
        r.isLargeRegion = true;
        return r;
    };

    sfi::LruBinder binder(slots);

    SandboxConfig cfg;
    cfg.isHybrid = true; // the runtime multiplexes from inside (§3.3.1)
    ctx.enter(cfg);

    const double t0 = clock.nowNs();
    std::uint64_t accesses = 0;
    for (unsigned i = 0; i < switches; ++i) {
        const unsigned memory = i % memories;
        // Counterfactual slot counts beyond the architectural four
        // reuse the real registers modulo 4: the *cost* of the metadata
        // reload is what this ablation measures, and it is identical
        // per slot.
        const sfi::LruBinder::Binding binding = binder.bind(memory);
        const unsigned slot = binding.slot % kNumExplicitRegions;
        if (!binding.hit)
            ctx.setRegion(kFirstExplicitRegion + slot, regionFor(memory));
        // A burst of checked accesses through the slot.
        HmovOperands ops;
        ops.width = 8;
        for (unsigned a = 0; a < 16; ++a) {
            ops.index = a * 8;
            AccessChecker::checkHmov(ctx, slot, ops, false);
            clock.tick(1);
            ++accesses;
        }
    }
    ctx.exit();
    (void)accesses;
    return clock.nowNs() - t0;
}

} // namespace

int
main()
{
    constexpr unsigned kSwitches = 20000;
    std::printf("Ablation: multiplexing K memories over the explicit "
                "region registers\n");
    std::printf("%-10s %14s %14s %14s\n", "memories", "4 slots (HFI)",
                "2 slots", "8 slots");
    std::printf("%.*s\n", 56,
                "--------------------------------------------------------");
    for (unsigned memories : {1u, 2u, 4u, 6u, 8u, 12u, 16u, 32u}) {
        const double hfi4 = runMultiplexed(memories, 4, kSwitches);
        const double two = runMultiplexed(memories, 2, kSwitches);
        const double eight = runMultiplexed(memories, 8, kSwitches);
        std::printf("%-10u %11.1f us %11.1f us %11.1f us\n", memories,
                    hfi4 / 1e3, two / 1e3, eight / 1e3);
    }
    std::printf("\nWith K <= 4 memories the 4-register design never "
                "reloads metadata;\nbeyond that the hybrid sandbox pays a "
                "serialized hfi_set_region per switch (§4.3).\nDoubling "
                "registers to 8 delays the cliff but doubles the on-chip "
                "state the paper\nworks to keep constant (§4's 22-register "
                "budget).\n");
    return 0;
}
