#include "workloads/faas_workloads.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "workloads/crypto.h"
#include "workloads/support.h"

namespace hfi::workloads::faas
{

std::string
makeXmlDocument(std::uint64_t records, std::uint32_t seed)
{
    Rng rng(seed);
    std::string xml = "<orders>";
    for (std::uint64_t i = 0; i < records; ++i) {
        xml += "<order><id>" + std::to_string(rng.nextBelow(1000000)) +
               "</id><qty>" + std::to_string(1 + rng.nextBelow(99)) +
               "</qty><price>" + std::to_string(rng.nextBelow(10000)) +
               "</price></order>";
    }
    xml += "</orders>";
    return xml;
}

std::uint64_t
xmlToJson(sfi::Sandbox &s, std::uint64_t in_off, std::uint64_t in_len)
{
    Arena arena(s, in_off + in_len + 8);
    const std::uint64_t out = arena.alloc(in_len * 2 + 64);

    Checksum sum;
    std::uint64_t at = 0;
    auto emit = [&](char c) {
        s.store<std::uint8_t>(out + at++, static_cast<std::uint8_t>(c));
        sum.mix(static_cast<std::uint8_t>(c));
    };

    // Event-driven XML scan: tags become JSON keys, text becomes values.
    std::uint64_t i = 0;
    int depth = 0;
    bool first_at_depth[16] = {};
    while (i < in_len) {
        const char c = static_cast<char>(s.load<std::uint8_t>(in_off + i));
        s.chargeOps(4);
        if (c == '<') {
            const bool closing =
                static_cast<char>(s.load<std::uint8_t>(in_off + i + 1)) ==
                '/';
            // Scan the tag name.
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
                if (depth > 0 && !first_at_depth[depth])
                    emit(',');
                first_at_depth[depth] = false;
                emit('"');
                for (char t : tag)
                    emit(t);
                emit('"');
                emit(':');
                emit('{');
                ++depth;
                if (depth < 16)
                    first_at_depth[depth] = true;
            }
            i = j + 1;
        } else {
            // Text content: emit as a "value" field.
            if (depth < 16 && !first_at_depth[depth])
                emit(',');
            if (depth < 16)
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

std::uint64_t
classifyImage(sfi::Sandbox &s, std::uint64_t img_off, std::uint32_t side,
              std::uint32_t seed)
{
    // Conv(3x3, 8 filters) -> ReLU -> 2x2 max pool -> dense(10), all in
    // 16.16 fixed point with weights in sandbox memory.
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

    // Convolution and pool run one output row at a time. A row whose
    // spans the sandbox accepts is checked once and charged as the
    // element loop charges it, pixel for pixel; any other row takes the
    // element loop, so a trap or a mask wrap lands on the same pixel with
    // the same counters, clock and page faults. Each pixel's arithmetic
    // is one lambda, shared by both.
    const auto conv_pixel = [](const std::uint8_t *r0, const std::uint8_t *r1,
                               const std::uint8_t *r2,
                               const std::int32_t *w) {
        std::int32_t acc = 0; // |acc| <= 9 * 255 * 256
        for (int k = 0; k < 3; ++k)
            acc += r0[k] * w[k] + r1[k] * w[3 + k] + r2[k] * w[6 + k];
        return std::max(acc >> 4, 0);
    };
    // Host-side rows: the convolution's output row, the pool's two
    // input rows.
    std::vector<std::int32_t> rows(2 * static_cast<std::size_t>(side));

    // Convolution: per output pixel, the three 3-pixel input rows and
    // the filter's nine weights (18 loads), one store and 31 ops.
    for (std::uint32_t f = 0; f < filters; ++f) {
        const std::uint64_t w_off = conv_w + f * 9 * 4;
        for (std::uint32_t y = 1; y + 1 < side; ++y) {
            const std::uint64_t in_off =
                img_off + static_cast<std::uint64_t>(y - 1) * side;
            const std::uint64_t out_off =
                fmap + (static_cast<std::uint64_t>(f) * side * side +
                        static_cast<std::uint64_t>(y) * side + 1) *
                           4;
            const std::uint32_t n = side - 2;
            if (s.acceptsSpan(in_off, 1, 3 * std::size_t{side}, false) &&
                s.acceptsSpan(w_off, 4, 9, false) &&
                s.acceptsSpan(out_off, 4, n, true)) {
                const std::uint8_t *in =
                    s.checkedSpan(in_off, 1, 3 * std::size_t{side}, false);
                std::int32_t w[9];
                std::memcpy(w, s.checkedSpan(w_off, 4, 9, false), sizeof(w));
                std::uint8_t *out = s.checkedSpan(out_off, 4, n, true);
                for (std::uint32_t x = 0; x < n; ++x)
                    rows[x] = conv_pixel(in + x, in + side + x,
                                         in + 2 * side + x, w);
                std::memcpy(out, rows.data(), n * std::size_t{4});
                s.chargeAccesses(18 * std::uint64_t{n}, false);
                s.chargeAccesses(n, true);
                s.chargeOps(31 * std::uint64_t{n});
                continue;
            }
            for (std::uint32_t x = 0; x < n; ++x) {
                std::uint8_t px[9];
                for (std::uint32_t ky = 0; ky < 3; ++ky)
                    s.loadN(in_off + std::uint64_t{ky} * side + x,
                            px + ky * 3, 3);
                std::int32_t w[9];
                s.loadN(w_off, w, 9);
                s.store<std::int32_t>(out_off + std::uint64_t{x} * 4,
                                      conv_pixel(px, px + 3, px + 6, w));
                s.chargeOps(9 * 3 + 4);
            }
        }
    }

    // 2x2 max pool: per pooled pixel, a pair from each of two feature-map
    // rows (4 loads), one store and 8 ops.
    const auto pool_pixel = [](const std::int32_t *top,
                               const std::int32_t *bottom) {
        return std::max({0, top[0], top[1], bottom[0], bottom[1]});
    };
    for (std::uint32_t f = 0; f < filters; ++f) {
        for (std::uint32_t y = 0; y < pooled_side; ++y) {
            const std::uint64_t top =
                fmap + (static_cast<std::uint64_t>(f) * side * side +
                        static_cast<std::uint64_t>(2 * y) * side) *
                           4;
            const std::uint64_t bottom = top + std::uint64_t{side} * 4;
            const std::uint64_t out_off =
                pooled + (static_cast<std::uint64_t>(f) * pooled_side *
                              pooled_side +
                          static_cast<std::uint64_t>(y) * pooled_side) *
                             4;
            const std::uint32_t n = pooled_side;
            if (s.acceptsSpan(top, 4, 2 * n, false) &&
                s.acceptsSpan(bottom, 4, 2 * n, false) &&
                s.acceptsSpan(out_off, 4, n, true)) {
                std::memcpy(rows.data(), s.checkedSpan(top, 4, 2 * n, false),
                            n * std::size_t{8});
                std::memcpy(rows.data() + 2 * n,
                            s.checkedSpan(bottom, 4, 2 * n, false),
                            n * std::size_t{8});
                std::uint8_t *out = s.checkedSpan(out_off, 4, n, true);
                for (std::uint32_t x = 0; x < n; ++x) {
                    const std::int32_t best =
                        pool_pixel(&rows[2 * x], &rows[2 * n + 2 * x]);
                    std::memcpy(out + std::size_t{x} * 4, &best, 4);
                }
                s.chargeAccesses(4 * std::uint64_t{n}, false);
                s.chargeAccesses(n, true);
                s.chargeOps(8 * std::uint64_t{n});
                continue;
            }
            for (std::uint32_t x = 0; x < n; ++x) {
                std::int32_t pair[2][2];
                s.loadN(top + std::uint64_t{x} * 8, pair[0], 2);
                s.loadN(bottom + std::uint64_t{x} * 8, pair[1], 2);
                s.store<std::int32_t>(out_off + std::uint64_t{x} * 4,
                                      pool_pixel(pair[0], pair[1]));
                s.chargeOps(8);
            }
        }
    }

    // Dense layer to 10 logits; weights derived on the fly from the rng
    // stream (kept in registers — a weight *matrix* would dwarf memory),
    // 22 ops per feature.
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
    }
    s.chargeOps(22 * feat_count);

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

std::uint64_t
checkSha256(sfi::Sandbox &s, std::uint64_t in_off, std::uint64_t in_len,
            std::uint64_t digest_off)
{
    Arena arena(s, digest_off + 64);
    const std::uint64_t computed = arena.alloc(32);
    const std::uint64_t digest_sum =
        crypto::sha256Sandboxed(s, in_off, in_len, computed);

    std::uint8_t got[32];
    std::uint8_t want[32];
    s.loadN(computed, got, 32);
    s.loadN(digest_off, want, 32);
    const bool match = std::memcmp(got, want, 32) == 0;
    s.chargeOps(32 * 3);
    Checksum sum;
    sum.mix(digest_sum);
    sum.mix(match ? 1 : 0);
    return sum.value();
}

std::string
makeHtmlTemplate(std::uint32_t seed)
{
    (void)seed;
    return "<html><head><title>{{title}}</title></head><body>"
           "<h1>{{title}}</h1><p>Hello {{user}}, your balance is "
           "{{balance}}.</p><table>{{#rows}}<tr><td>{{item}}</td>"
           "<td>{{count}}</td><td>{{total}}</td></tr>{{/rows}}"
           "</table><footer>{{footer}}</footer></body></html>";
}

std::uint64_t
renderTemplate(sfi::Sandbox &s, std::uint64_t tpl_off, std::uint64_t tpl_len,
               std::uint64_t rows, std::uint32_t seed)
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

    // One-pass renderer with loop-section expansion.
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
        // Read the {{token}}.
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

} // namespace hfi::workloads::faas
