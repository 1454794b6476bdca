/**
 * @file
 * A cost model of Swivel-SFI — the fastest software Spectre hardening
 * for Wasm, and Table 1's comparison point (§6.5).
 *
 * Swivel [53] recompiles Wasm so speculation cannot leave the sandbox:
 * code is rewritten into *linear blocks* (single-entry, fence-guarded),
 * conditional branches are hardened, indirect calls go through a
 * speculation-safe dispatch, and the protected stack is separated. The
 * run-time price is paid per control-flow operation, so a workload's
 * overhead is determined by its branch/call density — which is why
 * Table 1 spans everything from ~0% (straight-line image classification
 * kernels) to ~70% (branchy string templating). The binary price is
 * paid per code byte (fences + block padding), which is why the image-
 * classification binary (34 MiB of model weights, little code) barely
 * grows while the others gain ~0.6 MiB.
 *
 * We model exactly those two mechanisms: a compute multiplier derived
 * from a static CodeProfile, and code-section bloat.
 */

#ifndef HFI_SWIVEL_SWIVEL_H
#define HFI_SWIVEL_SWIVEL_H

#include <cstdint>
#include <string>

namespace hfi::swivel
{

/** Static shape of a workload's compiled code. */
struct CodeProfile
{
    std::string name;
    /** Conditional branches per 1000 executed ops. */
    double branchesPerKiloOp = 0;
    /** Indirect calls/returns per 1000 executed ops. */
    double callsPerKiloOp = 0;
    /** Code-section bytes of the stock binary. */
    std::uint64_t codeBytes = 0;
    /** Non-code bytes (data, model weights, embedded assets). */
    std::uint64_t dataBytes = 0;
};

/** Swivel transform costs. */
struct SwivelCosts
{
    /**
     * Extra cycles per hardened conditional branch (register-poisoned
     * CBP conversion in Swivel-SFI).
     */
    double perBranchCycles = 2.1;
    /** Extra cycles per hardened indirect call/return (BTB-safe
     *  dispatch + separate-stack shuffle). */
    double perCallCycles = 14.0;
    /** Code-section growth factor from fences and block padding. */
    double codeBloat = 0.43;
};

/** The costs every Swivel-hardened workload pays. */
inline constexpr SwivelCosts kSwivelCosts{};

/** The effect of Swivel-hardening one workload. */
struct SwivelEffect
{
    /** Multiplier on the workload's executed cycles. */
    double computeFactor = 1.0;
    /** Hardened binary size in bytes. */
    std::uint64_t binaryBytes = 0;
};

/** Apply the Swivel-SFI transform model to @p profile. */
SwivelEffect apply(const CodeProfile &profile);

/** The Table 1 workload profiles (calibrated; see EXPERIMENTS.md). */
CodeProfile xmlToJsonProfile();
CodeProfile imageClassifyProfile();
CodeProfile checkShaProfile();
CodeProfile templatedHtmlProfile();

} // namespace hfi::swivel

#endif // HFI_SWIVEL_SWIVEL_H
