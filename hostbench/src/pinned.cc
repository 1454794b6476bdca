/**
 * @file
 * Modeled fingerprints pinned at the default seed. They are virtual-
 * clock results, so they do not depend on the host; a change that moves
 * one changes what the program models, not how fast it runs.
 */

#include "workload.h"

namespace hostbench
{

namespace
{

struct Pin
{
    const char *workload;
    const char *cell;
    const char *value;
};

// Serving cells: served, virtual duration (ns), virtual p99 (ns),
// instances created, retries. fig2_sim cells: committed instructions
// and cycles of the pipeline run.
constexpr Pin kPins[] = {
    {"faas_mix", "Unsafe/guard_pages",
     "served=48 dur=192448840.26257175 p99=1397209.3939393908 inst=2 retries=0"},
    {"faas_mix", "HfiNative/hfi",
     "served=48 dur=192448389.9595415 p99=1368014.5454545468 inst=2 retries=0"},
    {"faas_mix", "HfiSwitchOnExit/hfi",
     "served=48 dur=192448378.74742025 p99=1368003.3333333358 inst=2 retries=0"},
    {"faas_mix", "Swivel/guard_pages",
     "served=48 dur=192457111.55166268 p99=1876452.2160606086 inst=2 retries=0"},
    {"faas_mix", "Unsafe/bounds_check",
     "served=48 dur=192459539.05045056 p99=1927112.7272727266 inst=2 retries=0"},
    {"faas_mix", "Unsafe/mask",
     "served=48 dur=192454178.44438994 p99=1661524.8484848514 inst=2 retries=0"},
    {"serve_cold", "Unsafe/64KiB",
     "served=6000 dur=242364619.60644805 p99=518720.97710478306 inst=6000 retries=0"},
    {"serve_cold", "HfiNative/64KiB",
     "served=6000 dur=242364721.42462987 p99=518890.674074471 inst=6000 retries=0"},
    {"serve_cold", "HfiSwitchOnExit/64KiB",
     "served=6000 dur=242364687.78826618 p99=518834.61346840858 inst=6000 retries=0"},
    {"serve_cold", "Swivel/64KiB",
     "served=6000 dur=242547421.08670527 p99=860001.96321567893 inst=6000 retries=0"},
    {"serve_cold", "Unsafe/256KiB",
     "served=3000 dur=119263389.00833486 p99=522477.07601192594 inst=3000 retries=0"},
    {"serve_cold", "HfiNative/256KiB",
     "served=3000 dur=119263422.94772881 p99=522816.46995134652 inst=3000 retries=0"},
    {"serve_cold", "HfiSwitchOnExit/256KiB",
     "served=3000 dur=119263411.73560759 p99=522704.34873917699 inst=3000 retries=0"},
    {"serve_cold", "Swivel/256KiB",
     "served=3000 dur=119292118.06469852 p99=815008.15058656782 inst=3000 retries=0"},
    {"serve_warm_faults", "Unsafe",
     "served=199985 dur=15946840111.522945 p99=407774.84848487377 inst=2597 retries=8450"},
    {"serve_warm_faults", "HfiNative",
     "served=199985 dur=15946840179.401731 p99=407827.27272725105 inst=2597 retries=8450"},
    {"serve_warm_faults", "HfiSwitchOnExit",
     "served=199985 dur=15946840156.977491 p99=407804.84848499298 inst=2597 retries=8450"},
    {"serve_warm_faults", "Swivel",
     "served=199985 dur=15946894619.835674 p99=762439.28906822205 inst=2597 retries=8450"},
    {"fig2_sim", "blake3-scalar/hw",
     "insts=65614 cycles=45192"},
    {"fig2_sim", "blake3-scalar/emu",
     "insts=65612 cycles=45296"},
    {"fig2_sim", "ackermann/hw",
     "insts=218415 cycles=119318"},
    {"fig2_sim", "ackermann/emu",
     "insts=218413 cycles=119717"},
    {"fig2_sim", "base64/hw",
     "insts=368015 cycles=177429"},
    {"fig2_sim", "base64/emu",
     "insts=368013 cycles=185525"},
    {"fig2_sim", "ctype/hw",
     "insts=480015 cycles=242698"},
    {"fig2_sim", "ctype/emu",
     "insts=480013 cycles=242802"},
    {"fig2_sim", "fib2/hw",
     "insts=56018 cycles=48249"},
    {"fig2_sim", "fib2/emu",
     "insts=56016 cycles=50354"},
    {"fig2_sim", "gimli/hw",
     "insts=68214 cycles=46592"},
    {"fig2_sim", "gimli/emu",
     "insts=68212 cycles=46695"},
    {"fig2_sim", "keccak/hw",
     "insts=61014 cycles=42467"},
    {"fig2_sim", "keccak/emu",
     "insts=61012 cycles=42572"},
    {"fig2_sim", "memmove/hw",
     "insts=246964 cycles=125642"},
    {"fig2_sim", "memmove/emu",
     "insts=246962 cycles=137958"},
    {"fig2_sim", "minicsv/hw",
     "insts=499797 cycles=221763"},
    {"fig2_sim", "minicsv/emu",
     "insts=499795 cycles=221970"},
    {"fig2_sim", "nestedloop/hw",
     "insts=577814 cycles=471854"},
    {"fig2_sim", "nestedloop/emu",
     "insts=577812 cycles=471955"},
    {"fig2_sim", "random/hw",
     "insts=240015 cycles=241783"},
    {"fig2_sim", "random/emu",
     "insts=240013 cycles=261903"},
    {"fig2_sim", "ratelimit/hw",
     "insts=508259 cycles=758863"},
    {"fig2_sim", "ratelimit/emu",
     "insts=508257 cycles=758982"},
    {"fig2_sim", "sieve/hw",
     "insts=320414 cycles=97326"},
    {"fig2_sim", "sieve/emu",
     "insts=320412 cycles=97504"},
    {"fig2_sim", "switch/hw",
     "insts=294787 cycles=2766818"},
    {"fig2_sim", "switch/emu",
     "insts=294785 cycles=2843408"},
    {"fig2_sim", "xblabla20/hw",
     "insts=100015 cycles=70869"},
    {"fig2_sim", "xblabla20/emu",
     "insts=100013 cycles=75974"},
    {"fig2_sim", "xchacha20/hw",
     "insts=100015 cycles=70869"},
    {"fig2_sim", "xchacha20/emu",
     "insts=100013 cycles=75974"},
};

} // namespace

const char *
pinnedValue(const std::string &workload, const std::string &cell)
{
    for (const Pin &p : kPins)
        if (workload == p.workload && cell == p.cell)
            return p.value;
    return nullptr;
}

std::string
checkPinned(const std::string &workload, const std::string &cell,
            const std::string &actual)
{
    const char *pinned = pinnedValue(workload, cell);
    if (!pinned)
        return workload + " " + cell + ": no pinned fingerprint (actual " +
               actual + ")";
    if (actual == pinned)
        return {};
    return workload + " " + cell + ": fingerprint " + actual +
           " differs from the pinned " + pinned;
}

} // namespace hostbench
