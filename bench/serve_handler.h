/**
 * @file
 * The request handler the serving benches share (serve_scaling,
 * serve_faults, trace_overhead), so every one of them serves the same
 * work.
 */

#ifndef HFI_BENCH_SERVE_HANDLER_H
#define HFI_BENCH_SERVE_HANDLER_H

#include <cstdint>

#include "serve/request.h"
#include "sfi/sandbox.h"

namespace hfi::bench
{

/** 64 stores plus @p ops metered ops: ~76 us of work at 250'000 ops. */
inline serve::Handler
handlerWithOps(std::uint64_t ops)
{
    return [ops](sfi::Sandbox &s, std::uint32_t seed) {
        for (int i = 0; i < 64; ++i)
            s.store<std::uint32_t>(64 + (i % 64) * 4, seed + i);
        s.chargeOps(ops);
    };
}

} // namespace hfi::bench

#endif // HFI_BENCH_SERVE_HANDLER_H
