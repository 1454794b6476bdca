/**
 * @file
 * Core vocabulary of the serving engine: requests, protection schemes,
 * and the request handler signature.
 *
 * A Request is one unit of tenant work flowing through the engine. Its
 * arrival time is virtual nanoseconds on the engine's simulated wall
 * clock; its seed parameterizes the handler so every request does
 * deterministic-but-distinct real work.
 */

#ifndef HFI_SERVE_REQUEST_H
#define HFI_SERVE_REQUEST_H

#include <cstdint>
#include <functional>

#include "sfi/sandbox.h"

namespace hfi::serve
{

/**
 * How handler execution is protected against escapes/Spectre — the
 * Table 1 / §6.5 schemes.
 */
enum class Scheme
{
    Unsafe,          ///< Lucet baseline: isolation, no Spectre hardening
    HfiNative,       ///< HFI native sandbox, serialized enter/exit (§3.4)
    HfiSwitchOnExit, ///< HFI with the switch-on-exit extension (§4.5)
    Swivel,          ///< Swivel-SFI compiler hardening [53]
};

const char *schemeName(Scheme s);

/**
 * A request handler: given the instance's sandbox and a per-request
 * seed, do the work. Handlers must be pure functions of (sandbox, seed)
 * — any hidden state would break the engine's determinism guarantee
 * across worker counts.
 */
using Handler = std::function<void(sfi::Sandbox &, std::uint32_t seed)>;

/** One request travelling through the engine. */
struct Request
{
    std::uint64_t id = 0;    ///< issue-order identifier
    double arrivalNs = 0;    ///< virtual wall-clock arrival time
    std::uint32_t seed = 0;  ///< handler parameterization
    int client = -1;         ///< closed-loop client, -1 for open loop
};

} // namespace hfi::serve

#endif // HFI_SERVE_REQUEST_H
