/**
 * @file
 * §6.2 / Figure 4: Wasm-sandboxed font and image rendering in Firefox.
 *
 * Font (libgraphite stand-in): "the font rendering benchmark reflows
 * the text on a page ten times... guard pages 1823 ms, bounds-checking
 * 2022 ms, HFI emulation 1677 ms."
 *
 * Image (libjpeg stand-in): decode time for three resolutions x three
 * compression levels x three backends, normalized per group to guard
 * pages — "HFI offers the biggest increase for larger images that
 * amortize the cost of hfi_enter. More compressed images — that are
 * more compute intensive — also see greater benefits."
 *
 * The RLBox-style setup: a fresh sandbox per decode (created outside
 * the timed region, like the paper's warm-run median), per-row-band
 * transitions, and the decoder's own memory_grow traffic inside the
 * measurement. The wasm2c-in-Firefox cost rows (450 extra milli-cycles
 * per software access, 100 for hmov) reflect the denser address
 * arithmetic of that toolchain — see DESIGN.md.
 */

#include <cstdio>

#include "sfi/runtime.h"
#include "workloads/font.h"
#include "workloads/image.h"

namespace
{

using namespace hfi;

/** The wasm2c-in-Firefox cost configuration per backend. */
sfi::RuntimeConfig
firefoxConfig(sfi::BackendKind kind)
{
    sfi::RuntimeConfig config;
    config.backend = kind;
    // Dense decode loops saturate the AGU: the base-add / zext chain
    // costs that SPEC-style code hides become visible, and hmov keeps
    // a residue (DESIGN.md).
    config.costs = sfi::paperCosts(kind);
    config.costs->accessMilli += kind == sfi::BackendKind::Hfi ? 100 : 450;
    return config;
}

/** One full image decode inside a fresh sandbox; returns virtual ms. */
double
decodeOnce(sfi::BackendKind kind, const workloads::image::EncodedImage &img)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    sfi::Runtime runtime(mmu, ctx, firefoxConfig(kind));

    // The paper reports the median of 1000 warm runs: instance creation
    // is outside the measurement, but the per-decode memory_grow calls
    // (from the decoder's allocations) are inside it.
    sfi::SandboxOptions opts;
    opts.initialPages = 2; // 128 KiB before any memory_grow
    auto sandbox = runtime.createSandbox(opts);
    if (!sandbox)
        return -1;
    const double t0 = clock.nowNs();

    // One sandbox invocation per image row — the paper counts ~720x2
    // serialized enters/exits for a 1080-row image (§6.2).
    for (unsigned row = 0; row + 1 < img.height; ++row) {
        sandbox->enter();
        sandbox->exit();
    }
    // The decode itself (single pass; the band transitions above carry
    // the per-row transition cost).
    sandbox->invoke([&](sfi::Sandbox &s) {
        workloads::image::decodeSandboxed(s, img);
    });
    return (clock.nowNs() - t0) / 1e6;
}

double
fontOnce(sfi::BackendKind kind, const std::string &text)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    sfi::Runtime runtime(mmu, ctx, firefoxConfig(kind));
    auto sandbox = runtime.createSandbox({8, 1024});
    if (!sandbox)
        return -1;
    const double t0 = clock.nowNs();
    sandbox->invoke([&](sfi::Sandbox &s) {
        workloads::font::renderPage(s, text, 800);
    });
    return (clock.nowNs() - t0) / 1e6;
}

} // namespace

int
main()
{
    using workloads::image::Quality;

    // ----- Font rendering (libgraphite analogue) -----
    const std::string text = workloads::font::makeTestText(12000, 17);
    std::printf("Section 6.2: font rendering (10 reflows, multiple "
                "sizes)\n");
    const double font_guard = fontOnce(sfi::BackendKind::GuardPages, text);
    const double font_bounds =
        fontOnce(sfi::BackendKind::BoundsCheck, text);
    const double font_hfi = fontOnce(sfi::BackendKind::Hfi, text);
    std::printf("  guard pages: %7.0f ms   (paper: 1823 ms)\n", font_guard);
    std::printf("  bounds:      %7.0f ms   (paper: 2022 ms, +%.0f%%)\n",
                font_bounds, 100.0 * (font_bounds / font_guard - 1));
    std::printf("  HFI:         %7.0f ms   (paper: 1677 ms, %.1f%% "
                "faster than guard pages; ours: %.1f%%)\n\n",
                font_hfi, 8.7, 100.0 * (1 - font_hfi / font_guard));

    // ----- Image decoding (libjpeg analogue), Figure 4 -----
    struct Resolution
    {
        const char *name;
        std::uint32_t w, h;
    };
    const Resolution resolutions[] = {
        {"1920p", 1920, 1080}, {"480p", 854, 480}, {"240p", 426, 240}};
    const Quality qualities[] = {Quality::Best, Quality::Default,
                                 Quality::None};

    std::printf("Figure 4: Firefox image decode, normalized runtime "
                "(guard pages = 100%%)\n");
    std::printf("%-8s %-8s %14s %14s %14s\n", "quality", "res",
                "bounds-checks", "guard pages", "HFI");
    std::printf("%.*s\n", 62,
                "--------------------------------------------------------"
                "------");
    for (Quality q : qualities) {
        for (const Resolution &res : resolutions) {
            const auto pixels =
                workloads::image::makeTestImage(res.w, res.h, 7);
            const auto encoded =
                workloads::image::encode(pixels, res.w, res.h, q);
            const double guard =
                decodeOnce(sfi::BackendKind::GuardPages, encoded);
            const double bounds =
                decodeOnce(sfi::BackendKind::BoundsCheck, encoded);
            const double hfi_ms = decodeOnce(sfi::BackendKind::Hfi, encoded);
            std::printf("%-8s %-8s %13.1f%% %13.1f%% %13.1f%%  "
                        "(HFI %4.1f ms)\n",
                        workloads::image::qualityName(q), res.name,
                        100.0 * bounds / guard, 100.0,
                        100.0 * hfi_ms / guard, hfi_ms);
        }
    }
    std::printf("(paper: HFI 14%%-37%% faster than guard pages, biggest "
                "gains on large/compressed images)\n");
    return 0;
}
