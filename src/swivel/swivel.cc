#include "swivel/swivel.h"

#include <cmath>

namespace hfi::swivel
{

SwivelEffect
apply(const CodeProfile &profile)
{
    SwivelEffect effect;
    effect.computeFactor =
        1.0 +
        profile.branchesPerKiloOp * kSwivelCosts.perBranchCycles / 1000.0 +
        profile.callsPerKiloOp * kSwivelCosts.perCallCycles / 1000.0;
    effect.binaryBytes =
        static_cast<std::uint64_t>(
            std::llround(static_cast<double>(profile.codeBytes) *
                         (1.0 + kSwivelCosts.codeBloat))) +
        profile.dataBytes;
    return effect;
}

namespace
{
constexpr std::uint64_t kMiB = 1024 * 1024;
}

CodeProfile
xmlToJsonProfile()
{
    // Branchy byte-at-a-time parsing; 3.5 MiB binary, ~1.4 MiB code.
    return {"XML to JSON", 150.0, 2.0, static_cast<std::uint64_t>(1.4 * kMiB),
            static_cast<std::uint64_t>(2.1 * kMiB)};
}

CodeProfile
imageClassifyProfile()
{
    // Straight-line fixed-point kernels; the 34.3 MiB binary is almost
    // entirely model weights, so Swivel's code bloat barely registers.
    return {"Image classification", 2.0, 0.5,
            static_cast<std::uint64_t>(0.47 * kMiB),
            static_cast<std::uint64_t>(33.84 * kMiB)};
}

CodeProfile
checkShaProfile()
{
    // Hash rounds are unrolled and straight-line; the framing and
    // comparison code adds a modest branch count.
    return {"Check SHA-256", 43.0, 1.0,
            static_cast<std::uint64_t>(1.63 * kMiB),
            static_cast<std::uint64_t>(2.27 * kMiB)};
}

CodeProfile
templatedHtmlProfile()
{
    // String scanning, token dispatch, and callback-style substitution:
    // the branchiest of the four, hence Table 1's worst case.
    return {"Templated HTML", 250.0, 15.0,
            static_cast<std::uint64_t>(1.4 * kMiB),
            static_cast<std::uint64_t>(2.2 * kMiB)};
}

} // namespace hfi::swivel
