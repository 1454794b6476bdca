#include "workloads/spec_like.h"

#include <algorithm>
#include <bit>

namespace hfi::workloads::spec
{

namespace
{

void
fillRandom(sfi::Sandbox &s, std::uint64_t off, std::uint64_t len,
           std::uint32_t seed)
{
    Rng rng(seed);
    std::uint64_t i = 0;
    for (; i + 8 <= len; i += 8)
        s.store<std::uint64_t>(off + i, rng.next());
    for (; i < len; ++i)
        s.store<std::uint8_t>(off + i, static_cast<std::uint8_t>(rng.next()));
}

std::uint64_t
runBzip2(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // Block compression: run-length encode, move-to-front transform,
    // then a frequency-weighted checksum — the byte-granular
    // transform-heavy profile of 401.bzip2.
    Arena arena(s);
    const std::uint64_t len = 32 * 1024 * scale;
    const std::uint64_t src = arena.alloc(len);
    const std::uint64_t mtf = arena.alloc(256);
    const std::uint64_t out = arena.alloc(len * 2 + 64);

    // Compressible input: runs of slowly varying bytes.
    Rng rng(seed);
    std::uint8_t current = 0;
    for (std::uint64_t i = 0; i < len; ++i) {
        if (rng.nextBelow(8) == 0)
            current = static_cast<std::uint8_t>(rng.nextBelow(64));
        s.store<std::uint8_t>(src + i, current);
    }
    for (int i = 0; i < 256; ++i)
        s.store<std::uint8_t>(mtf + i, static_cast<std::uint8_t>(i));

    // RLE pass.
    std::uint64_t at = 0;
    std::uint64_t i = 0;
    while (i < len) {
        const std::uint8_t b = s.load<std::uint8_t>(src + i);
        std::uint64_t run = 1;
        while (i + run < len && run < 255 &&
               s.load<std::uint8_t>(src + i + run) == b) {
            ++run;
            s.chargeOps(3);
        }
        s.store<std::uint8_t>(out + at++, b);
        s.store<std::uint8_t>(out + at++, static_cast<std::uint8_t>(run));
        i += run;
        s.chargeOps(6);
    }

    // Move-to-front over the RLE output.
    std::uint64_t freq[8] = {};
    for (std::uint64_t j = 0; j < at; ++j) {
        const std::uint8_t b = s.load<std::uint8_t>(out + j);
        std::uint8_t rank = 0;
        while (s.load<std::uint8_t>(mtf + rank) != b) {
            ++rank;
            s.chargeOps(5); // compare + branch + pointer arithmetic
        }
        for (std::uint8_t k = rank; k > 0; --k)
            s.store<std::uint8_t>(mtf + k, s.load<std::uint8_t>(mtf + k - 1));
        s.store<std::uint8_t>(mtf, b);
        freq[std::bit_width(static_cast<unsigned>(rank))]++;
        s.chargeOps(9);
    }

    Checksum sum;
    sum.mix(at);
    for (std::uint64_t f : freq)
        sum.mix(f);
    return sum.value();
}

std::uint64_t
runMcf(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // Single-source cheapest paths by Bellman-Ford-with-queue over a
    // sparse network: 429.mcf's pointer-chasing, cache-hostile profile.
    Arena arena(s);
    const std::uint64_t nodes = 2048 * scale;
    const std::uint64_t degree = 4;
    const std::uint64_t edges = nodes * degree;
    const std::uint64_t head = arena.alloc(nodes * 4);  // first edge index
    const std::uint64_t dest = arena.alloc(edges * 4);
    const std::uint64_t cost = arena.alloc(edges * 4);
    const std::uint64_t dist = arena.alloc(nodes * 8);
    const std::uint64_t queue = arena.alloc(nodes * 16 * 4);

    Rng rng(seed);
    for (std::uint64_t v = 0; v < nodes; ++v) {
        s.store<std::uint32_t>(head + v * 4,
                               static_cast<std::uint32_t>(v * degree));
        for (std::uint64_t e = 0; e < degree; ++e) {
            // Mostly local edges plus a few long hops: mcf-like locality.
            const std::uint64_t to =
                e < 2 ? (v + 1 + rng.nextBelow(16)) % nodes
                      : rng.nextBelow(nodes);
            s.store<std::uint32_t>(dest + (v * degree + e) * 4,
                                   static_cast<std::uint32_t>(to));
            s.store<std::uint32_t>(cost + (v * degree + e) * 4,
                                   static_cast<std::uint32_t>(
                                       1 + rng.nextBelow(100)));
        }
        s.store<std::uint64_t>(dist + v * 8, UINT64_MAX / 2);
    }

    s.store<std::uint64_t>(dist, 0);
    std::uint64_t qh = 0, qt = 0;
    auto push = [&](std::uint32_t v) {
        s.store<std::uint32_t>(queue + (qt++ % (nodes * 16)) * 4, v);
    };
    push(0);

    std::uint64_t relaxations = 0;
    while (qh < qt) {
        const std::uint32_t v =
            s.load<std::uint32_t>(queue + (qh++ % (nodes * 16)) * 4);
        const std::uint64_t dv = s.load<std::uint64_t>(dist + v * 8);
        const std::uint32_t first = s.load<std::uint32_t>(head + v * 4);
        for (std::uint64_t e = 0; e < degree; ++e) {
            const std::uint32_t to =
                s.load<std::uint32_t>(dest + (first + e) * 4);
            const std::uint32_t w =
                s.load<std::uint32_t>(cost + (first + e) * 4);
            if (dv + w < s.load<std::uint64_t>(dist + to * 8)) {
                s.store<std::uint64_t>(dist + to * 8, dv + w);
                push(to);
                ++relaxations;
            }
            s.chargeOps(4);
        }
    }

    Checksum sum;
    sum.mix(relaxations);
    for (std::uint64_t v = 0; v < nodes; v += 97)
        sum.mix(s.load<std::uint64_t>(dist + v * 8));
    return sum.value();
}

std::uint64_t
runMilc(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // 3x3 complex matrix multiplies over a 4D lattice in fixed point:
    // 433.milc's dense streaming-FLOP profile.
    Arena arena(s);
    const std::uint64_t sites = 256 * scale;
    const std::uint64_t words = sites * 18; // 3x3 complex, 2 ints each
    std::uint64_t a = arena.alloc(words * 4);
    const std::uint64_t b = arena.alloc(words * 4);
    std::uint64_t c = arena.alloc(words * 4);
    fillRandom(s, a, words * 4, seed);
    fillRandom(s, b, words * 4, seed ^ 1);

    for (int sweep = 0; sweep < 4; ++sweep) {
        for (std::uint64_t site = 0; site < sites; ++site) {
            const std::uint64_t ma = a + site * 72;
            const std::uint64_t mb = b + site * 72;
            const std::uint64_t mc = c + site * 72;
            for (int row = 0; row < 3; ++row) {
                for (int col = 0; col < 3; ++col) {
                    // The accumulators intentionally wrap (the product
                    // feeds the next sweep as pseudo-random input), so
                    // they are unsigned: the stored bits 16..47 are the
                    // same as under two's-complement signed wraparound,
                    // without the signed-overflow UB.
                    std::uint64_t re = 0, im = 0;
                    for (int k = 0; k < 3; ++k) {
                        const auto are = static_cast<std::int32_t>(
                            s.load<std::uint32_t>(ma + (row * 3 + k) * 8));
                        const auto aim = static_cast<std::int32_t>(
                            s.load<std::uint32_t>(ma + (row * 3 + k) * 8 + 4));
                        const auto bre = static_cast<std::int32_t>(
                            s.load<std::uint32_t>(mb + (k * 3 + col) * 8));
                        const auto bim = static_cast<std::int32_t>(
                            s.load<std::uint32_t>(mb + (k * 3 + col) * 8 + 4));
                        re += static_cast<std::uint64_t>(
                                  static_cast<std::int64_t>(are) * bre) -
                              static_cast<std::uint64_t>(
                                  static_cast<std::int64_t>(aim) * bim);
                        im += static_cast<std::uint64_t>(
                                  static_cast<std::int64_t>(are) * bim) +
                              static_cast<std::uint64_t>(
                                  static_cast<std::int64_t>(aim) * bre);
                    }
                    s.store<std::uint32_t>(mc + (row * 3 + col) * 8,
                                           static_cast<std::uint32_t>(re >> 16));
                    s.store<std::uint32_t>(mc + (row * 3 + col) * 8 + 4,
                                           static_cast<std::uint32_t>(im >> 16));
                    s.chargeOps(3 * 8 + 4);
                }
            }
        }
        // Ping-pong: the product becomes next sweep's left operand.
        std::swap(a, c);
    }

    Checksum sum;
    for (std::uint64_t site = 0; site < sites; site += 13)
        sum.mix(s.load<std::uint32_t>(c + site * 72));
    return sum.value();
}

std::uint64_t
runGobmk(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // Go-board evaluation: flood-fill liberty counting plus a wide
    // pattern-dispatch switch. 445.gobmk is the paper's icache-pressure
    // outlier; the sandbox options mark it maximally sensitive.
    Arena arena(s);
    const std::uint64_t n = 19;
    const std::uint64_t board = arena.alloc(n * n);
    const std::uint64_t marks = arena.alloc(n * n);
    const std::uint64_t stack = arena.alloc(n * n * 4);

    Rng rng(seed);
    std::uint64_t evals = 0;
    Checksum sum;
    const std::uint64_t positions = 40 * scale;
    for (std::uint64_t pos = 0; pos < positions; ++pos) {
        for (std::uint64_t i = 0; i < n * n; ++i) {
            s.store<std::uint8_t>(board + i,
                                  static_cast<std::uint8_t>(rng.nextBelow(3)));
            s.store<std::uint8_t>(marks + i, 0);
        }
        // Count liberties of every group via flood fill.
        std::uint64_t score = 0;
        for (std::uint64_t start = 0; start < n * n; ++start) {
            if (s.load<std::uint8_t>(marks + start))
                continue;
            const std::uint8_t color = s.load<std::uint8_t>(board + start);
            if (color == 0)
                continue;
            std::uint64_t sp = 0, libs = 0, stones = 0;
            s.store<std::uint32_t>(stack,
                                   static_cast<std::uint32_t>(start));
            sp = 1;
            s.store<std::uint8_t>(marks + start, 1);
            while (sp) {
                const std::uint32_t at =
                    s.load<std::uint32_t>(stack + --sp * 4);
                ++stones;
                const std::uint64_t r = at / n, c = at % n;
                const std::int64_t dr[4] = {-1, 1, 0, 0};
                const std::int64_t dc[4] = {0, 0, -1, 1};
                for (int d = 0; d < 4; ++d) {
                    const std::int64_t nr = static_cast<std::int64_t>(r) + dr[d];
                    const std::int64_t nc = static_cast<std::int64_t>(c) + dc[d];
                    if (nr < 0 || nc < 0 || nr >= static_cast<std::int64_t>(n) ||
                        nc >= static_cast<std::int64_t>(n))
                        continue;
                    const std::uint64_t nb =
                        static_cast<std::uint64_t>(nr) * n +
                        static_cast<std::uint64_t>(nc);
                    const std::uint8_t v = s.load<std::uint8_t>(board + nb);
                    if (v == 0) {
                        ++libs;
                    } else if (v == color &&
                               !s.load<std::uint8_t>(marks + nb)) {
                        s.store<std::uint8_t>(marks + nb, 1);
                        s.store<std::uint32_t>(stack + sp++ * 4,
                                               static_cast<std::uint32_t>(nb));
                    }
                    s.chargeOps(8);
                }
            }
            // Pattern dispatch: a wide switch on the group signature —
            // the big-code shape that stresses the icache.
            const std::uint64_t sig = (stones * 31 + libs) & 63;
            switch (sig & 15) {
              case 0: score += libs * 2; break;
              case 1: score += stones; break;
              case 2: score += libs + stones; break;
              case 3: score += libs > 1 ? 5 : 0; break;
              case 4: score += stones * libs; break;
              case 5: score += libs == 1 ? 10 : 1; break;
              case 6: score += (stones << 1) ^ libs; break;
              case 7: score += stones > 4 ? 7 : 2; break;
              case 8: score += libs * libs; break;
              case 9: score += stones + 3; break;
              case 10: score += libs ^ 5; break;
              case 11: score += stones % 7; break;
              case 12: score += libs + 11; break;
              case 13: score += stones * 3 - libs; break;
              case 14: score += (libs + stones) / 2; break;
              case 15: score += 1; break;
            }
            s.chargeOps(14);
            ++evals;
        }
        sum.mix(score);
    }
    sum.mix(evals);
    return sum.value();
}

std::uint64_t
runHmmer(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // Viterbi decoding over a profile HMM: 456.hmmer's add/max dynamic-
    // programming inner loop, three score streams per cell.
    Arena arena(s);
    const std::uint64_t model = 128;
    const std::uint64_t seq_len = 256 * scale;
    const std::uint64_t match = arena.alloc((model + 1) * 4);
    const std::uint64_t insert = arena.alloc((model + 1) * 4);
    const std::uint64_t del = arena.alloc((model + 1) * 4);
    const std::uint64_t emit = arena.alloc(model * 32 * 4);
    const std::uint64_t sequence = arena.alloc(seq_len);

    Rng rng(seed);
    for (std::uint64_t i = 0; i < model * 32; ++i)
        s.store<std::uint32_t>(emit + i * 4,
                               static_cast<std::uint32_t>(rng.nextBelow(64)));
    for (std::uint64_t i = 0; i < seq_len; ++i)
        s.store<std::uint8_t>(sequence + i,
                              static_cast<std::uint8_t>(rng.nextBelow(32)));
    for (std::uint64_t k = 0; k <= model; ++k) {
        s.store<std::uint32_t>(match + k * 4, 0);
        s.store<std::uint32_t>(insert + k * 4, 0);
        s.store<std::uint32_t>(del + k * 4, 0);
    }

    std::uint32_t best = 0;
    for (std::uint64_t i = 0; i < seq_len; ++i) {
        const std::uint8_t sym = s.load<std::uint8_t>(sequence + i);
        std::uint32_t prev_m = 0, prev_i = 0, prev_d = 0;
        for (std::uint64_t k = 1; k <= model; ++k) {
            const std::uint32_t e =
                s.load<std::uint32_t>(emit + ((k - 1) * 32 + sym) * 4);
            const std::uint32_t m = s.load<std::uint32_t>(match + k * 4);
            const std::uint32_t ins = s.load<std::uint32_t>(insert + k * 4);
            const std::uint32_t d = s.load<std::uint32_t>(del + k * 4);
            const std::uint32_t new_m =
                std::max({prev_m, prev_i, prev_d}) + e;
            const std::uint32_t new_i = std::max(m, ins);
            const std::uint32_t new_d = std::max(new_m, d) / 2;
            prev_m = m;
            prev_i = ins;
            prev_d = d;
            s.store<std::uint32_t>(match + k * 4, new_m);
            s.store<std::uint32_t>(insert + k * 4, new_i);
            s.store<std::uint32_t>(del + k * 4, new_d);
            best = std::max(best, new_m);
            s.chargeOps(12);
        }
    }
    return best;
}

std::uint64_t
runSjeng(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // Fixed-depth alpha-beta negamax over a toy 6x6 capture game:
    // 458.sjeng's branchy search profile with board state in memory.
    Arena arena(s);
    const std::uint64_t n = 6;
    const std::uint64_t board = arena.alloc(n * n);
    // Undo stack and move list live in linear memory like sjeng's.
    const std::uint64_t undo = arena.alloc(1024);

    Rng rng(seed);
    for (std::uint64_t i = 0; i < n * n; ++i)
        s.store<std::uint8_t>(board + i,
                              static_cast<std::uint8_t>(rng.nextBelow(3)));

    std::uint64_t nodes = 0;
    // Recursive lambda via explicit depth-limited search.
    std::function<std::int64_t(int, std::int64_t, std::int64_t, int)> search =
        [&](int depth, std::int64_t alpha, std::int64_t beta,
            int player) -> std::int64_t {
        ++nodes;
        if (depth == 0) {
            std::int64_t eval = 0;
            for (std::uint64_t i = 0; i < n * n; ++i) {
                const std::uint8_t v = s.load<std::uint8_t>(board + i);
                eval += v == 1 ? 3 : v == 2 ? -3 : 0;
                s.chargeOps(3);
            }
            return player == 1 ? eval : -eval;
        }
        std::int64_t best = -100000;
        for (std::uint64_t i = 0; i < n * n; ++i) {
            const std::uint8_t v = s.load<std::uint8_t>(board + i);
            s.chargeOps(4);
            if (v != 0)
                continue;
            s.store<std::uint8_t>(board + i,
                                  static_cast<std::uint8_t>(player));
            s.store<std::uint8_t>(undo + (depth & 127),
                                  static_cast<std::uint8_t>(i));
            const std::int64_t score =
                -search(depth - 1, -beta, -alpha, 3 - player);
            s.store<std::uint8_t>(board + i, 0);
            best = std::max(best, score);
            alpha = std::max(alpha, score);
            s.chargeOps(6);
            if (alpha >= beta)
                break;
        }
        return best == -100000 ? 0 : best;
    };

    Checksum sum;
    const std::uint64_t games = scale;
    for (std::uint64_t g = 0; g < games; ++g) {
        // Mutate a couple of squares between searches.
        for (int k = 0; k < 4; ++k)
            s.store<std::uint8_t>(board + rng.nextBelow(n * n),
                                  static_cast<std::uint8_t>(rng.nextBelow(3)));
        sum.mix(static_cast<std::uint64_t>(
            search(4, -100000, 100000, 1) + 50000));
    }
    sum.mix(nodes);
    return sum.value();
}

std::uint64_t
runLibquantum(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // Quantum register simulation: each basis state is a (amplitude,
    // index) record; gates stream over the whole register —
    // 462.libquantum's long sequential sweeps.
    Arena arena(s);
    const std::uint64_t states = 8192 * scale;
    const std::uint64_t amp = arena.alloc(states * 8);
    const std::uint64_t idx = arena.alloc(states * 8);
    fillRandom(s, amp, states * 8, seed);
    for (std::uint64_t i = 0; i < states; ++i)
        s.store<std::uint64_t>(idx + i * 8, i);

    std::uint64_t toggles = 0;
    for (int gate = 0; gate < 24; ++gate) {
        const std::uint64_t target = 1ULL << (gate % 13);
        const std::uint64_t control = 1ULL << ((gate + 5) % 13);
        for (std::uint64_t i = 0; i < states; ++i) {
            const std::uint64_t basis = s.load<std::uint64_t>(idx + i * 8);
            if (basis & control) {
                s.store<std::uint64_t>(idx + i * 8, basis ^ target);
                const std::uint64_t a = s.load<std::uint64_t>(amp + i * 8);
                s.store<std::uint64_t>(amp + i * 8,
                                       a * 0x9e3779b97f4a7c15ULL + 1);
                ++toggles;
            }
            s.chargeOps(5);
        }
    }
    Checksum sum;
    sum.mix(toggles);
    for (std::uint64_t i = 0; i < states; i += 1021)
        sum.mix(s.load<std::uint64_t>(amp + i * 8));
    return sum.value();
}

std::uint64_t
runH264ref(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // Motion estimation: 16x16 SAD search over a reference window —
    // 464.h264ref's blocked 2D access pattern.
    Arena arena(s);
    const std::uint64_t w = 176, h = 144; // QCIF
    const std::uint64_t cur = arena.alloc(w * h);
    const std::uint64_t ref = arena.alloc(w * h);
    fillRandom(s, cur, w * h, seed);
    fillRandom(s, ref, w * h, seed ^ 7);

    std::uint64_t total_sad = 0;
    const std::uint64_t frames = scale;
    for (std::uint64_t f = 0; f < frames; ++f) {
        for (std::uint64_t by = 0; by + 16 <= h; by += 16) {
            for (std::uint64_t bx = 0; bx + 16 <= w; bx += 16) {
                std::uint64_t best = UINT64_MAX;
                for (std::int64_t dy = -4; dy <= 4; dy += 2) {
                    for (std::int64_t dx = -4; dx <= 4; dx += 2) {
                        const std::int64_t ry = static_cast<std::int64_t>(by) + dy;
                        const std::int64_t rx = static_cast<std::int64_t>(bx) + dx;
                        if (ry < 0 || rx < 0 || ry + 16 > static_cast<std::int64_t>(h) ||
                            rx + 16 > static_cast<std::int64_t>(w))
                            continue;
                        std::uint64_t sad = 0;
                        for (std::uint64_t y = 0; y < 16; ++y) {
                            for (std::uint64_t x = 0; x < 16; x += 8) {
                                const std::uint64_t a = s.load<std::uint64_t>(
                                    cur + (by + y) * w + bx + x);
                                const std::uint64_t b = s.load<std::uint64_t>(
                                    ref + static_cast<std::uint64_t>(ry + static_cast<std::int64_t>(y)) * w +
                                    static_cast<std::uint64_t>(rx) + x);
                                // Byte-wise |a-b| accumulated in parallel.
                                for (int byte = 0; byte < 8; ++byte) {
                                    const std::int32_t av =
                                        static_cast<std::uint8_t>(a >> (8 * byte));
                                    const std::int32_t bv =
                                        static_cast<std::uint8_t>(b >> (8 * byte));
                                    sad += static_cast<std::uint64_t>(
                                        av > bv ? av - bv : bv - av);
                                }
                                s.chargeOps(18);
                            }
                        }
                        best = std::min(best, sad);
                    }
                }
                total_sad += best;
            }
        }
    }
    return total_sad;
}

std::uint64_t
runLbm(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // Lattice-Boltzmann stream-and-collide in fixed point over a 2D
    // grid with 9 directions: 470.lbm's bandwidth-bound sweep.
    Arena arena(s);
    const std::uint64_t w = 64, h = 64;
    const std::uint64_t cells = w * h;
    const std::uint64_t f0 = arena.alloc(cells * 9 * 4);
    const std::uint64_t f1 = arena.alloc(cells * 9 * 4);
    fillRandom(s, f0, cells * 9 * 4, seed);

    const std::int64_t dx[9] = {0, 1, -1, 0, 0, 1, -1, 1, -1};
    const std::int64_t dy[9] = {0, 0, 0, 1, -1, 1, -1, -1, 1};

    std::uint64_t src = f0, dst = f1;
    const std::uint64_t steps = 4 * scale;
    for (std::uint64_t t = 0; t < steps; ++t) {
        for (std::uint64_t y = 0; y < h; ++y) {
            for (std::uint64_t x = 0; x < w; ++x) {
                const std::uint64_t cell = (y * w + x) * 9;
                // Collide: relax toward the mean.
                std::uint64_t rho = 0;
                std::uint32_t fi[9];
                for (int d = 0; d < 9; ++d) {
                    fi[d] = s.load<std::uint32_t>(src + (cell + d) * 4) &
                            0xffffff;
                    rho += fi[d];
                }
                const std::uint32_t eq =
                    static_cast<std::uint32_t>(rho / 9);
                for (int d = 0; d < 9; ++d) {
                    const std::uint32_t relaxed = fi[d] - (fi[d] >> 2) +
                                                  (eq >> 2);
                    // Stream to the neighbour in direction d (periodic).
                    const std::uint64_t nx =
                        (x + static_cast<std::uint64_t>(dx[d] + 64)) % w;
                    const std::uint64_t ny =
                        (y + static_cast<std::uint64_t>(dy[d] + 64)) % h;
                    s.store<std::uint32_t>(dst + ((ny * w + nx) * 9 +
                                                  static_cast<std::uint64_t>(d)) * 4,
                                           relaxed);
                }
                s.chargeOps(9 * 6);
            }
        }
        std::swap(src, dst);
    }

    Checksum sum;
    for (std::uint64_t i = 0; i < cells; i += 37)
        sum.mix(s.load<std::uint32_t>(src + i * 9 * 4));
    return sum.value();
}

std::uint64_t
runAstar(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // A* over a weighted grid with a binary heap in linear memory:
    // 473.astar's mixed heap/grid access pattern.
    Arena arena(s);
    const std::uint64_t n = 128;
    const std::uint64_t weight = arena.alloc(n * n);
    const std::uint64_t dist = arena.alloc(n * n * 4);
    const std::uint64_t heap = arena.alloc(n * n * 8 * 4);

    Rng rng(seed);
    for (std::uint64_t i = 0; i < n * n; ++i)
        s.store<std::uint8_t>(weight + i,
                              static_cast<std::uint8_t>(1 + rng.nextBelow(9)));

    Checksum sum;
    const std::uint64_t searches = 2 * scale;
    for (std::uint64_t q = 0; q < searches; ++q) {
        for (std::uint64_t i = 0; i < n * n; ++i)
            s.store<std::uint32_t>(dist + i * 4, UINT32_MAX);

        const std::uint64_t goal = n * n - 1;
        std::uint64_t heap_size = 0;
        auto heapPush = [&](std::uint32_t key, std::uint32_t node) {
            std::uint64_t i = heap_size++;
            s.store<std::uint64_t>(heap + i * 8,
                                   (static_cast<std::uint64_t>(key) << 32) |
                                       node);
            while (i > 0) {
                const std::uint64_t parent = (i - 1) / 2;
                const std::uint64_t pv = s.load<std::uint64_t>(heap + parent * 8);
                const std::uint64_t iv = s.load<std::uint64_t>(heap + i * 8);
                s.chargeOps(5);
                if (pv <= iv)
                    break;
                s.store<std::uint64_t>(heap + parent * 8, iv);
                s.store<std::uint64_t>(heap + i * 8, pv);
                i = parent;
            }
        };
        auto heapPop = [&]() {
            const std::uint64_t top = s.load<std::uint64_t>(heap);
            const std::uint64_t last =
                s.load<std::uint64_t>(heap + --heap_size * 8);
            s.store<std::uint64_t>(heap, last);
            std::uint64_t i = 0;
            while (true) {
                const std::uint64_t l = 2 * i + 1, r = 2 * i + 2;
                std::uint64_t smallest = i;
                std::uint64_t sv = s.load<std::uint64_t>(heap + i * 8);
                if (l < heap_size &&
                    s.load<std::uint64_t>(heap + l * 8) < sv) {
                    smallest = l;
                    sv = s.load<std::uint64_t>(heap + l * 8);
                }
                if (r < heap_size &&
                    s.load<std::uint64_t>(heap + r * 8) < sv)
                    smallest = r;
                s.chargeOps(8);
                if (smallest == i)
                    break;
                const std::uint64_t tmp = s.load<std::uint64_t>(heap + i * 8);
                s.store<std::uint64_t>(heap + i * 8,
                                       s.load<std::uint64_t>(heap + smallest * 8));
                s.store<std::uint64_t>(heap + smallest * 8, tmp);
                i = smallest;
            }
            return top;
        };

        s.store<std::uint32_t>(dist, 0);
        heapPush(0, 0);
        std::uint32_t found = 0;
        while (heap_size) {
            const std::uint64_t top = heapPop();
            const std::uint32_t node = static_cast<std::uint32_t>(top);
            if (node == goal) {
                found = static_cast<std::uint32_t>(top >> 32);
                break;
            }
            const std::uint32_t d = s.load<std::uint32_t>(dist + node * 4);
            const std::uint64_t r = node / n, c = node % n;
            const std::int64_t dr[4] = {-1, 1, 0, 0};
            const std::int64_t dc[4] = {0, 0, -1, 1};
            for (int dir = 0; dir < 4; ++dir) {
                const std::int64_t nr = static_cast<std::int64_t>(r) + dr[dir];
                const std::int64_t nc = static_cast<std::int64_t>(c) + dc[dir];
                if (nr < 0 || nc < 0 || nr >= static_cast<std::int64_t>(n) ||
                    nc >= static_cast<std::int64_t>(n))
                    continue;
                const std::uint64_t nb = static_cast<std::uint64_t>(nr) * n +
                                         static_cast<std::uint64_t>(nc);
                const std::uint32_t nd =
                    d + s.load<std::uint8_t>(weight + nb);
                if (nd < s.load<std::uint32_t>(dist + nb * 4)) {
                    s.store<std::uint32_t>(dist + nb * 4, nd);
                    // Manhattan heuristic keeps it A* rather than
                    // Dijkstra.
                    const std::uint32_t hcost = static_cast<std::uint32_t>(
                        (n - 1 - static_cast<std::uint64_t>(nr)) +
                        (n - 1 - static_cast<std::uint64_t>(nc)));
                    heapPush(nd + hcost, static_cast<std::uint32_t>(nb));
                }
                s.chargeOps(10);
            }
        }
        sum.mix(found);
        // New start weights for the next search.
        for (int k = 0; k < 64; ++k)
            s.store<std::uint8_t>(weight + rng.nextBelow(n * n),
                                  static_cast<std::uint8_t>(1 + rng.nextBelow(9)));
    }
    return sum.value();
}

std::uint64_t
runXalancbmk(sfi::Sandbox &s, std::uint64_t scale, std::uint32_t seed)
{
    // Build an XML-ish node tree in linear memory and run a recursive
    // transform over it: 483.xalancbmk's pointer-heavy tree churn.
    Arena arena(s);
    const std::uint64_t max_nodes = 4096 * scale;
    // Node: {first_child u32, next_sibling u32, tag u32, value u32}.
    const std::uint64_t nodes = arena.alloc(max_nodes * 16);

    Rng rng(seed);
    std::uint64_t count = 1;
    s.store<std::uint32_t>(nodes, 0);
    s.store<std::uint32_t>(nodes + 4, 0);
    s.store<std::uint32_t>(nodes + 8, 1);
    s.store<std::uint32_t>(nodes + 12, 0);

    // Grow a random tree by attaching each new node to a random parent.
    for (std::uint64_t i = 1; i < max_nodes; ++i) {
        const std::uint64_t parent = rng.nextBelow(count);
        const std::uint64_t node = nodes + i * 16;
        s.store<std::uint32_t>(node, 0);
        s.store<std::uint32_t>(node + 4,
                               s.load<std::uint32_t>(nodes + parent * 16));
        s.store<std::uint32_t>(node + 8,
                               static_cast<std::uint32_t>(rng.nextBelow(16)));
        s.store<std::uint32_t>(node + 12,
                               static_cast<std::uint32_t>(rng.nextBelow(1000)));
        s.store<std::uint32_t>(nodes + parent * 16,
                               static_cast<std::uint32_t>(i));
        ++count;
        s.chargeOps(8);
    }

    // Transform: iterative DFS computing per-tag aggregates.
    std::uint64_t agg[16] = {};
    const std::uint64_t stack = arena.alloc(max_nodes * 4);
    std::uint64_t sp = 0;
    s.store<std::uint32_t>(stack, 0);
    sp = 1;
    while (sp) {
        const std::uint32_t at = s.load<std::uint32_t>(stack + --sp * 4);
        const std::uint64_t node = nodes + static_cast<std::uint64_t>(at) * 16;
        const std::uint32_t tag = s.load<std::uint32_t>(node + 8);
        const std::uint32_t value = s.load<std::uint32_t>(node + 12);
        agg[tag & 15] += value;
        std::uint32_t child = s.load<std::uint32_t>(node);
        while (child) {
            s.store<std::uint32_t>(stack + sp++ * 4, child);
            child = s.load<std::uint32_t>(
                nodes + static_cast<std::uint64_t>(child) * 16 + 4);
            s.chargeOps(4);
        }
        s.chargeOps(6);
    }

    Checksum sum;
    for (std::uint64_t a : agg)
        sum.mix(a);
    return sum.value();
}

} // namespace

const std::vector<Workload> &
suite()
{
    static const std::vector<Workload> kSuite = {
        {"401.bzip2", 10, runBzip2},
        {"429.mcf", 5, runMcf},
        {"433.milc", 0, runMilc},
        {"445.gobmk", 80, runGobmk},
        {"456.hmmer", 0, runHmmer},
        {"458.sjeng", 25, runSjeng},
        {"462.libquantum", 0, runLibquantum},
        {"464.h264ref", 5, runH264ref},
        {"470.lbm", 0, runLbm},
        {"473.astar", 10, runAstar},
        {"483.xalancbmk", 30, runXalancbmk},
    };
    return kSuite;
}

} // namespace hfi::workloads::spec
