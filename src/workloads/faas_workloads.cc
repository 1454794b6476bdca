#include "workloads/faas_workloads.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "workloads/crypto.h"
#include "workloads/support.h"

namespace hfi::workloads::faas
{

// The three kernels below take one form. Check: ask acceptsSpan for
// every span the kernel will touch. Compute on host bytes, counting
// the loads, stores and ops the per-element kernel would make. Commit
// once: checkedSpan over exactly the pages the per-element kernel
// reaches, the output into linear memory, one charge per counter.
// When a span is refused, or the host pass would leave its spans, the
// per-element kernel runs instead, so a trap or a mask wrap lands on
// the same element with the same counters, clock, page faults and
// partial stores. Counters are sums and the clock after exit() depends
// only on the total charge and the set of pages faulted, so committing
// once moves no modeled number (DESIGN.md, "Check once, charge per
// access").

namespace
{

/**
 * A text scanner's per-access I/O: each input byte is one sandbox
 * load, each output byte one store and each op charge one chargeOps
 * call, so it traps or wraps on the access that does.
 */
class SandboxText
{
  public:
    SandboxText(sfi::Sandbox &s, std::uint64_t in, std::uint64_t out)
        : s(s), in(in), out(out)
    {
    }

    char
    load(std::uint64_t i)
    {
        return static_cast<char>(s.load<std::uint8_t>(in + i));
    }

    void ops(std::uint64_t n) { s.chargeOps(n); }

    void
    put(std::uint64_t at, char c)
    {
        s.store<std::uint8_t>(out + at, static_cast<std::uint8_t>(c));
    }

  private:
    sfi::Sandbox &s;
    std::uint64_t in;
    std::uint64_t out;
};

/**
 * The same I/O on host bytes: reads the input span's bytes, puts into
 * a host buffer of the output span's size, and counts what
 * SandboxText would charge. A read past the input or a put past the
 * buffer leaves the spans the caller checked; it sets left and moves
 * nothing, and the caller discards the pass.
 */
class HostText
{
  public:
    HostText(const std::uint8_t *in, std::uint64_t in_len, std::uint64_t cap)
        : in(in), inLen(in_len), buf(new std::uint8_t[cap]), cap(cap)
    {
    }

    char
    load(std::uint64_t i)
    {
        ++loads;
        if (i >= inLen) {
            left = true;
            return 0;
        }
        readEnd = std::max(readEnd, i + 1);
        return static_cast<char>(in[i]);
    }

    void ops(std::uint64_t n) { opCount += n; }

    void
    put(std::uint64_t at, char c)
    {
        ++stores;
        if (at >= cap) {
            left = true;
            return;
        }
        buf[at] = static_cast<std::uint8_t>(c);
    }

    /**
     * Page in, write and charge what the pass did. A scanner reads
     * every input byte up to the last one it reads and puts its output
     * in order from 0, so [0, readEnd) and [0, stores) are the pages
     * SandboxText would have touched.
     */
    void
    commit(sfi::Sandbox &s, std::uint64_t in_off, std::uint64_t out)
    {
        if (readEnd)
            s.checkedSpan(in_off, 1, readEnd, false);
        if (stores) {
            std::uint8_t *dst = s.checkedSpan(out, 1, stores, true);
            assert(dst);
            std::memcpy(dst, buf.get(), stores);
        }
        s.chargeAccesses(loads, false);
        s.chargeAccesses(stores, true);
        s.chargeOps(opCount);
    }

    bool left = false;

  private:
    const std::uint8_t *in;
    std::uint64_t inLen;
    std::unique_ptr<std::uint8_t[]> buf;
    std::uint64_t cap;
    std::uint64_t readEnd = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t opCount = 0;
};

/**
 * Run @p scan, a text scanner generic over its I/O, on the @p in_len
 * bytes at @p in_off with at most @p cap output bytes at @p out: on
 * host bytes when both spans are accepted and the pass stays in them,
 * else per access.
 */
template <typename Scan>
std::uint64_t
runTextKernel(sfi::Sandbox &s, std::uint64_t in_off, std::uint64_t in_len,
              std::uint64_t out, std::uint64_t cap, Scan scan)
{
    if (s.acceptsSpan(in_off, 1, in_len, false) &&
        s.acceptsSpan(out, 1, cap, true)) {
        const sfi::LinearMemory &mem = s.memory();
        HostText host(mem.data() + in_off, in_len, cap);
        const std::uint64_t sum = scan(host);
        if (!host.left) {
            host.commit(s, in_off, out);
            return sum;
        }
    }
    SandboxText io(s, in_off, out);
    return scan(io);
}

/**
 * The XML-to-JSON scanner over @p io: tags become JSON keys, text
 * becomes "v" values. The per-depth "first member" flags cover depths
 * 0..15; a deeper or negative depth (malformed input) has none.
 */
template <typename Io>
std::uint64_t
xmlScan(Io &io, std::uint64_t in_len)
{
    Checksum sum;
    std::uint64_t at = 0;
    auto emit = [&](char c) {
        io.put(at++, c);
        sum.mix(static_cast<std::uint8_t>(c));
    };

    std::uint64_t i = 0;
    int depth = 0;
    bool first_at_depth[16] = {};
    const auto flagged = [&] { return depth >= 0 && depth < 16; };
    while (i < in_len) {
        const char c = io.load(i);
        io.ops(4);
        if (c == '<') {
            const bool closing = io.load(i + 1) == '/';
            // Scan the tag name.
            std::uint64_t j = i + (closing ? 2 : 1);
            std::string tag;
            while (j < in_len) {
                const char t = io.load(j);
                io.ops(3);
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
            // Text content: emit as a "value" field.
            if (flagged() && !first_at_depth[depth])
                emit(',');
            if (flagged())
                first_at_depth[depth] = false;
            emit('"');
            emit('v');
            emit('"');
            emit(':');
            while (i < in_len) {
                const char t = io.load(i);
                io.ops(3);
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

/**
 * The template renderer over @p io: {{name}} substitution from an Rng
 * stream plus {{#rows}}...{{/rows}} expansion, in one pass.
 */
template <typename Io>
std::uint64_t
renderScan(Io &io, std::uint64_t tpl_len, std::uint64_t rows,
           std::uint32_t seed)
{
    Rng rng(seed);
    Checksum sum;
    std::uint64_t at = 0;
    auto emit = [&](char c) {
        io.put(at++, c);
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
        const char c = io.load(i);
        io.ops(4);
        if (c != '{' || i + 1 >= tpl_len || io.load(i + 1) != '{') {
            emit(c);
            ++i;
            continue;
        }
        // Read the {{token}}.
        std::uint64_t j = i + 2;
        std::string token;
        while (j + 1 < tpl_len) {
            const char t = io.load(j);
            io.ops(3);
            if (t == '}' && io.load(j + 1) == '}')
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

// ------------------------------------------------------ image classifier

/** Where classifyImage keeps its layers in linear memory. */
struct ImageLayout
{
    static constexpr std::uint32_t filters = 8;
    std::uint64_t img;
    std::uint32_t side;
    std::uint64_t convW;  ///< filters x 9 int32 weights
    std::uint64_t fmap;   ///< filters x side x side int32 feature map
    std::uint32_t pooledSide;
    std::uint64_t pooled; ///< filters x pooledSide^2 int32 features

    std::uint64_t
    fmapRow(std::uint32_t f, std::uint32_t y) const
    {
        return fmap + (static_cast<std::uint64_t>(f) * side * side +
                       static_cast<std::uint64_t>(y) * side) *
                          4;
    }

    std::uint64_t
    pooledRow(std::uint32_t f, std::uint32_t y) const
    {
        return pooled +
               (static_cast<std::uint64_t>(f) * pooledSide * pooledSide +
                static_cast<std::uint64_t>(y) * pooledSide) *
                   4;
    }

    /** Convolution output pixels per filter, (side - 2)^2. */
    std::uint64_t
    convPixels() const
    {
        return side < 3 ? 0 : std::uint64_t{side - 2} * (side - 2);
    }

    std::uint64_t
    features() const
    {
        return std::uint64_t{filters} * pooledSide * pooledSide;
    }
};

/**
 * Add feature @p v to each logit K, weighted by the K-th 6-bit field
 * of @p w less 32. Expanded over constant K, so the caller's logits
 * stay in registers.
 */
template <std::size_t... K>
void
denseFeature(std::int64_t (&logits)[10], std::int64_t v, std::uint64_t w,
             std::index_sequence<K...>)
{
    ((logits[K] += v * (static_cast<std::int64_t>((w >> (6 * K)) & 63) - 32)),
     ...);
}

/**
 * The dense layer: 10 logits over @p n int32 features (native byte
 * order at @p bytes), feature i weighted by the ten 6-bit fields of
 * the i-th draw of an Rng stream (kept in registers — a weight
 * *matrix* would dwarf memory), in int64, exact whatever the features
 * hold. @return the winner mixed with the logit checksum.
 */
std::uint64_t
denseChecksum(const std::uint8_t *bytes, std::uint64_t n, std::uint32_t seed)
{
    Rng dense_rng(seed ^ 0xd15ea5e);
    std::int64_t logits[10] = {};
    for (std::uint64_t i = 0; i < n; ++i) {
        std::int32_t v;
        std::memcpy(&v, bytes + i * 4, 4);
        denseFeature(logits, v, dense_rng.next(),
                     std::make_index_sequence<10>());
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

/** 2x2 max pool of one pixel pair from each of two rows, ReLU'd. */
std::int32_t
poolPixel(const std::int32_t *top, const std::int32_t *bottom)
{
    return std::max({0, top[0], top[1], bottom[0], bottom[1]});
}

/**
 * The classifier after its weights are stored, one access at a time:
 * per output pixel three 3-pixel input rows and the filter's nine
 * weights (18 loads), one store and 31 ops; per pooled pixel two pairs
 * (4 loads), one store and 8 ops; the dense layer loads the features
 * and charges 22 ops each.
 */
std::uint64_t
classifyPerElement(sfi::Sandbox &s, const ImageLayout &l, std::uint32_t seed)
{
    const std::uint32_t side = l.side;
    for (std::uint32_t f = 0; f < l.filters; ++f) {
        const std::uint64_t w_off = l.convW + f * 9 * 4;
        for (std::uint32_t y = 1; y + 1 < side; ++y) {
            const std::uint64_t in_off =
                l.img + static_cast<std::uint64_t>(y - 1) * side;
            const std::uint64_t out_off = l.fmapRow(f, y) + 4;
            for (std::uint32_t x = 0; x + 2 < side; ++x) {
                std::uint8_t px[9];
                for (std::uint32_t ky = 0; ky < 3; ++ky)
                    s.loadN(in_off + std::uint64_t{ky} * side + x,
                            px + ky * 3, 3);
                std::int32_t w[9];
                s.loadN(w_off, w, 9);
                std::int32_t acc = 0; // |acc| <= 9 * 255 * 256
                for (int k = 0; k < 9; ++k)
                    acc += px[k] * w[k];
                s.store<std::int32_t>(out_off + std::uint64_t{x} * 4,
                                      std::max(acc >> 4, 0));
                s.chargeOps(9 * 3 + 4);
            }
        }
    }

    for (std::uint32_t f = 0; f < l.filters; ++f) {
        for (std::uint32_t y = 0; y < l.pooledSide; ++y) {
            const std::uint64_t top = l.fmapRow(f, 2 * y);
            const std::uint64_t bottom = top + std::uint64_t{side} * 4;
            const std::uint64_t out_off = l.pooledRow(f, y);
            for (std::uint32_t x = 0; x < l.pooledSide; ++x) {
                std::int32_t pair[2][2];
                s.loadN(top + std::uint64_t{x} * 8, pair[0], 2);
                s.loadN(bottom + std::uint64_t{x} * 8, pair[1], 2);
                s.store<std::int32_t>(out_off + std::uint64_t{x} * 4,
                                      poolPixel(pair[0], pair[1]));
                s.chargeOps(8);
            }
        }
    }

    const std::uint64_t n = l.features();
    std::vector<std::int32_t> features(n);
    s.loadN(l.pooled, features.data(), n);
    s.chargeOps(22 * n);
    return denseChecksum(reinterpret_cast<const std::uint8_t *>(
                             features.data()),
                         n, seed);
}

typedef float F4 __attribute__((vector_size(16)));
typedef std::int32_t I4 __attribute__((vector_size(16)));

F4
loadF4(const float *p)
{
    F4 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

I4
loadI4(const std::uint8_t *p)
{
    I4 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

I4
maxI4(I4 a, I4 b)
{
    const I4 a_wins = a > b;
    return (a & a_wins) | (b & ~a_wins);
}

/**
 * The classifier over spans the sandbox accepted, on their bytes. No
 * step after the check can trap or wrap, so the commit's page-in comes
 * first and each layer writes its checked output span in place. The
 * pool reads the feature map's border, which the convolution never
 * writes, as whatever bytes it holds: an earlier request's, on a
 * reused instance.
 */
std::uint64_t
classifyChecked(sfi::Sandbox &s, const ImageLayout &l, std::uint32_t seed)
{
    const std::uint32_t side = l.side;
    const std::uint32_t ps = l.pooledSide;
    const std::uint64_t conv_px = l.filters * l.convPixels();
    const std::uint64_t pooled_px = l.features();

    // Commit: page in what the per-element kernel reaches. The
    // convolution reads the image and the weights and writes rows and
    // columns [1, side - 1) of each map; the pool reads rows and
    // columns [0, 2 * ps) of each map, which hold all of those, and
    // writes every feature, which the dense layer reads. Within a map
    // that leaves gaps of at most one column, so one span from its
    // first to its last byte read covers the same pages.
    const std::uint8_t *img =
        conv_px ? s.checkedSpan(l.img, 1, std::size_t{side} * side, false)
                : nullptr;
    std::int32_t w[ImageLayout::filters * 9];
    std::memcpy(w, s.checkedSpan(l.convW, 4, l.filters * 9, false),
                sizeof(w));
    std::uint8_t *fmap = nullptr;
    for (std::uint32_t f = 0; f < l.filters; ++f) {
        std::uint8_t *map = s.checkedSpan(
            l.fmapRow(f, 0), 4, std::size_t{2 * ps - 1} * side + 2 * ps,
            true);
        if (f == 0)
            fmap = map;
    }
    std::uint8_t *pooled = s.checkedSpan(l.pooled, 4, pooled_px, true);
    assert(fmap && pooled);
    const auto fmapRow = [&](std::uint32_t f, std::uint32_t y) {
        return fmap + (l.fmapRow(f, y) - l.fmap);
    };

    // Convolution, four output pixels of every filter at a time in
    // float: every partial sum is an integer of magnitude at most
    // 9 * 255 * 256 < 2^24, so it is exact in any order. Lanes past a
    // row's end compute on the next row's pixels (on the last row, the
    // padding) and are not stored.
    if (conv_px) {
        const std::uint32_t n = side - 2;
        const std::size_t lanes = (n + 3) / 4 * 4;
        std::vector<float> pix(std::size_t{side} * side + 4);
        for (std::size_t i = 0; i < std::size_t{side} * side; ++i)
            pix[i] = img[i];
        F4 wv[ImageLayout::filters][9];
        for (std::uint32_t f = 0; f < l.filters; ++f) {
            for (int k = 0; k < 9; ++k) {
                const float v = static_cast<float>(w[f * 9 + k]);
                wv[f][k] = F4{v, v, v, v};
            }
        }
        std::vector<std::int32_t> rows(l.filters * lanes);
        for (std::uint32_t y = 1; y + 1 < side; ++y) {
            const float *r0 = pix.data() + std::size_t{y - 1} * side;
            const float *r1 = r0 + side;
            const float *r2 = r1 + side;
            for (std::size_t x = 0; x < lanes; x += 4) {
                const F4 p[9] = {loadF4(r0 + x), loadF4(r0 + x + 1),
                                 loadF4(r0 + x + 2), loadF4(r1 + x),
                                 loadF4(r1 + x + 1), loadF4(r1 + x + 2),
                                 loadF4(r2 + x), loadF4(r2 + x + 1),
                                 loadF4(r2 + x + 2)};
                for (std::uint32_t f = 0; f < l.filters; ++f) {
                    const F4 *k = wv[f];
                    const F4 acc = k[0] * p[0] + k[1] * p[1] + k[2] * p[2] +
                                   k[3] * p[3] + k[4] * p[4] + k[5] * p[5] +
                                   k[6] * p[6] + k[7] * p[7] + k[8] * p[8];
                    I4 q = __builtin_convertvector(acc, I4) >> 4;
                    q &= ~(q >> 31); // ReLU
                    std::memcpy(&rows[f * lanes + x], &q, sizeof(q));
                }
            }
            for (std::uint32_t f = 0; f < l.filters; ++f)
                std::memcpy(fmapRow(f, y) + 4, &rows[f * lanes],
                            std::size_t{n} * 4);
        }
    }

    // 2x2 max pool, four features at a time: the max of the two
    // feature-map rows, then of each pair and 0.
    for (std::uint32_t f = 0; f < l.filters; ++f) {
        for (std::uint32_t y = 0; y < ps; ++y) {
            const std::uint8_t *top = fmapRow(f, 2 * y);
            const std::uint8_t *bottom = fmapRow(f, 2 * y + 1);
            std::uint8_t *out = pooled + (l.pooledRow(f, y) - l.pooled);
            std::uint32_t x = 0;
            for (; x + 4 <= ps; x += 4) {
                const I4 lo = maxI4(loadI4(top + x * 8), loadI4(bottom + x * 8));
                const I4 hi =
                    maxI4(loadI4(top + x * 8 + 16), loadI4(bottom + x * 8 + 16));
                I4 best = maxI4(__builtin_shufflevector(lo, hi, 0, 2, 4, 6),
                                __builtin_shufflevector(lo, hi, 1, 3, 5, 7));
                best &= ~(best >> 31); // and 0
                std::memcpy(out + x * 4, &best, sizeof(best));
            }
            for (; x < ps; ++x) {
                std::int32_t pair[2][2];
                std::memcpy(pair[0], top + x * 8, 8);
                std::memcpy(pair[1], bottom + x * 8, 8);
                const std::int32_t best = poolPixel(pair[0], pair[1]);
                std::memcpy(out + x * 4, &best, 4);
            }
        }
    }

    s.chargeAccesses(18 * conv_px + 4 * pooled_px + pooled_px, false);
    s.chargeAccesses(conv_px + pooled_px, true);
    s.chargeOps(31 * conv_px + 8 * pooled_px + 22 * pooled_px);
    return denseChecksum(pooled, pooled_px, seed);
}

} // namespace

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
    const std::uint64_t cap = in_len * 2 + 64;
    const std::uint64_t out = arena.alloc(cap);
    return runTextKernel(s, in_off, in_len, out, cap,
                         [&](auto &io) { return xmlScan(io, in_len); });
}

std::uint64_t
classifyImage(sfi::Sandbox &s, std::uint64_t img_off, std::uint32_t side,
              std::uint32_t seed)
{
    // Conv(3x3, 8 filters) -> ReLU -> 2x2 max pool -> dense(10), all in
    // 16.16 fixed point with weights in sandbox memory.
    Arena arena(s, img_off + static_cast<std::uint64_t>(side) * side + 8);
    ImageLayout l;
    l.img = img_off;
    l.side = side;
    l.convW = arena.alloc(l.filters * 9 * 4);
    l.fmap = arena.alloc(static_cast<std::uint64_t>(l.filters) * side * side *
                         4);
    l.pooledSide = side / 2;
    l.pooled = arena.alloc(l.features() * 4);

    Rng rng(seed);
    for (std::uint64_t i = 0; i < l.filters * 9; ++i) {
        s.store<std::int32_t>(l.convW + i * 4,
                              static_cast<std::int32_t>(rng.nextBelow(512)) -
                                  256);
    }

    const std::uint64_t fmap_n =
        static_cast<std::uint64_t>(l.filters) * side * side;
    if (s.acceptsSpan(l.img, 1, std::size_t{side} * side, false) &&
        s.acceptsSpan(l.convW, 4, l.filters * 9, false) &&
        s.acceptsSpan(l.fmap, 4, fmap_n, false) &&
        s.acceptsSpan(l.fmap, 4, fmap_n, true) &&
        s.acceptsSpan(l.pooled, 4, l.features(), false) &&
        s.acceptsSpan(l.pooled, 4, l.features(), true))
        return classifyChecked(s, l, seed);
    return classifyPerElement(s, l, seed);
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
    const std::uint64_t cap = tpl_len + rows * 96 + 512;
    const std::uint64_t out = arena.alloc(cap);
    return runTextKernel(s, tpl_off, tpl_len, out, cap, [&](auto &io) {
        return renderScan(io, tpl_len, rows, seed);
    });
}

} // namespace hfi::workloads::faas
