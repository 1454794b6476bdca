/**
 * @file
 * Deterministic fault injection for the serving engine.
 *
 * The paper's HFI sandboxes are built to *fail safely*: an out-of-bounds
 * access, a syscall from a native sandbox, or an hmov whose effective-
 * address computation overflows all trap to the trusted runtime with the
 * reason in the exit-reason MSR (§3.3.2, §4.3). The FaaS evaluation
 * (§6.3) assumes a runtime that keeps serving while individual instances
 * misbehave. This module makes a configurable fraction of requests
 * exercise those paths so the engine's robustness machinery (timeouts,
 * bounded retry, instance quarantine + respawn — see serve/worker.cc)
 * can be measured under load.
 *
 * Every decision is a pure function of (engine seed, fault seed, request
 * id, attempt), so a campaign replays bit-identically from
 * (seed, fault_rate) — in the sequential event loop *and* in realThreads
 * mode, where requests are partitioned by id across host threads.
 * Injected HFI exits are produced by the real src/core checker paths
 * (AccessChecker::checkData/checkFetch/checkHmov, HfiContext::onSyscall)
 * and delivered through HfiContext::onFault, so the recorded MSR reason
 * and the charged costs are exactly what the hardware model produces.
 */

#ifndef HFI_SERVE_FAULTS_H
#define HFI_SERVE_FAULTS_H

#include <array>
#include <cstdint>

#include "core/context.h"

namespace hfi::serve
{

/** What an injected fault makes the request do inside the sandbox. */
enum class FaultKind : std::uint8_t
{
    None = 0,
    DataOob,       ///< load misses every implicit data region (§4.1)
    CodeOob,       ///< fetch misses every code region
    SyscallStorm,  ///< syscall burst; the first one redirects (§4.4)
    HmovOverflow,  ///< hmov effective-address overflow trap (§4.2)
    Stall,         ///< the handler wedges; the deadline watchdog fires
    Poison,        ///< request completes but corrupts its instance
};

constexpr unsigned kNumFaultKinds =
    static_cast<unsigned>(FaultKind::Poison) + 1;

const char *faultKindName(FaultKind kind);

/** True for kinds that raise an HFI exit (leave an MSR reason). */
constexpr bool
faultRaisesExit(FaultKind kind)
{
    return kind == FaultKind::DataOob || kind == FaultKind::CodeOob ||
           kind == FaultKind::SyscallStorm ||
           kind == FaultKind::HmovOverflow;
}

/** Fault-injection knobs (rate 0 = the stock happy path, zero cost). */
struct FaultConfig
{
    /** Fraction of attempts that draw a fault, in [0, 1]. */
    double rate = 0;
    /** Mixed with the engine seed; lets campaigns vary independently. */
    std::uint64_t seed = 0;
    /**
     * How long a stalled handler wedges before the livelock clears, in
     * virtual ns. With no request timeout the request eventually
     * completes (slowly); with one, the watchdog kills it first.
     */
    double stallNs = 2'000'000.0;
};

/** Per-core robustness accounting; merged engine-wide by the engine. */
struct RobustnessStats
{
    /** Faulted attempts by recorded MSR exit reason. */
    std::array<std::uint64_t, core::kNumExitReasons> exitsByReason{};
    /** Attempts that drew any injected fault kind. */
    std::uint64_t faultsInjected = 0;
    /** Faulted attempts (sum of exitsByReason). */
    std::uint64_t exits = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    /** Instances discarded as suspect (poisoned or wedged). */
    std::uint64_t quarantines = 0;
    /** Pool instances recreated after a quarantine. */
    std::uint64_t respawns = 0;
    /** Requests dropped after exhausting their retry budget. */
    std::uint64_t failed = 0;
    /** Dispatches that had to wait for a pending respawn. */
    std::uint64_t poolWaits = 0;

    /** Per-core served/shed, for the by-core breakdown. */
    std::uint64_t served = 0;
    std::uint64_t shed = 0;

    void
    merge(const RobustnessStats &o)
    {
        for (unsigned r = 0; r < core::kNumExitReasons; ++r)
            exitsByReason[r] += o.exitsByReason[r];
        faultsInjected += o.faultsInjected;
        exits += o.exits;
        retries += o.retries;
        timeouts += o.timeouts;
        quarantines += o.quarantines;
        respawns += o.respawns;
        failed += o.failed;
        poolWaits += o.poolWaits;
        served += o.served;
        shed += o.shed;
    }

    bool operator==(const RobustnessStats &) const = default;
};

/**
 * Draws fault decisions and raises them through the real checker paths.
 *
 * decide() is stateless over (request id, attempt) so the schedule of
 * faults does not depend on service order or worker count; raise()
 * drives the core model the way a misbehaving tenant would.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultConfig &config, std::uint64_t engine_seed);

    /**
     * The fault (if any) attempt @p attempt of request @p request_id
     * draws. Retried attempts draw independently, so a retry can
     * recover a request whose first attempt faulted.
     */
    FaultKind decide(std::uint64_t request_id, unsigned attempt) const;

    /**
     * Make the sandboxed request raise @p kind against @p ctx: run the
     * corresponding access through the real checker, then deliver the
     * failed check's reason via HfiContext::onFault (the hardware trap +
     * OS signal of §3.3.2). For SyscallStorm on a live native sandbox
     * the redirect goes through HfiContext::onSyscall instead (§4.4).
     *
     * When @p ctx is not in HFI mode (the Unsafe/Swivel schemes), the
     * access is evaluated against a reference native-sandbox bank so the
     * recorded reason is still the one the real checker computes for the
     * same access.
     *
     * @return the MSR reason recorded for the exit.
     */
    core::ExitReason raise(FaultKind kind, core::HfiContext &ctx) const;

    double stallNs() const { return config_.stallNs; }

  private:
    FaultConfig config_;
    std::uint64_t seed_;
};

} // namespace hfi::serve

#endif // HFI_SERVE_FAULTS_H
