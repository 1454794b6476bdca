/**
 * @file
 * One simulated serving core.
 *
 * A Worker owns a full per-core stack — VirtualClock, Mmu (its address-
 * space shard), HfiContext (per-core region registers and exit-reason
 * MSR, §3.3.3) and an os::Scheduler — plus the shard of the instance
 * pool it serves requests from: sfi::Sandbox instances it creates over
 * that Mmu and HfiContext. Request dispatch goes through the scheduler:
 * switching onto the tenant process (and the timer preemptions a long
 * handler suffers) xsave/xrstors the HFI register file with the §3.3.3
 * save-hfi-regs flag, so the OS-side cost of HFI is charged on every
 * context switch and the register state is round-tripped while a
 * sandbox is live.
 *
 * The worker's clock only accumulates *busy* time; idle gaps are
 * handled arithmetically by the engine (begin = max(freeNs, arrival)),
 * exactly like the original closed-loop model. That keeps per-request
 * service independent of arrival spacing, which is what makes latency
 * multisets reproducible across worker counts.
 */

#ifndef HFI_SERVE_WORKER_H
#define HFI_SERVE_WORKER_H

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/context.h"
#include "faas/latency.h"
#include "obs/trace.h"
#include "os/scheduler.h"
#include "serve/faults.h"
#include "serve/request.h"
#include "sfi/sandbox.h"
#include "swivel/swivel.h"
#include "vm/mmu.h"
#include "vm/virtual_clock.h"

namespace hfi::serve
{

/** Per-worker configuration (shared by all workers of one engine). */
struct WorkerConfig
{
    Scheme scheme = Scheme::Unsafe;
    /** Swivel effect (used when scheme == Swivel). */
    swivel::SwivelEffect swivelEffect{};

    /** Dispatch requests through the os::Scheduler (tenant process). */
    bool dispatchViaScheduler = true;
    /**
     * Timer quantum in virtual ns; a handler running longer is
     * preempted once per elapsed quantum (a context-switch round trip
     * with the HFI state xsave/xrstored mid-sandbox). 0 disables.
     */
    double quantumNs = 0;

    /** Isolation backend for pool instances. */
    sfi::BackendKind backend = sfi::BackendKind::Hfi;
    sfi::SandboxOptions sandboxOptions{1, 64};
    /** Retired instances per batched-madvise teardown (§6.3.1). */
    std::size_t teardownBatch = 32;

    /** Address-space width of each core's arena. */
    unsigned vaBits = 48;

    /** Fault injection (rate 0 = stock happy path, zero overhead). */
    FaultConfig faults{};
    /**
     * Per-request deadline on the virtual clock: an attempt whose
     * service time exceeds this is killed by the watchdog, its instance
     * quarantined. 0 disables the watchdog.
     */
    double requestTimeoutNs = 0;
    /** Retry budget after a faulted/timed-out attempt. 0 = fail fast. */
    unsigned maxRetries = 0;
    /** Backoff before retry k is retryBackoffNs * 2^k (virtual ns). */
    double retryBackoffNs = 50'000.0;
    /**
     * Warm instances kept per core. 0 keeps the stock FaaS
     * instance-per-request model (create + retire around every
     * request); > 0 serves from a warm pool whose quarantined members
     * are respawned in the background after respawnDelayNs.
     */
    std::size_t poolSize = 0;
    /** Delay before a quarantined pool slot is respawned (virtual ns). */
    double respawnDelayNs = 200'000.0;
};

/** Counters one worker accumulates; merged by the engine. */
struct WorkerStats
{
    std::uint64_t instancesCreated = 0;
    std::uint64_t reclaimBatches = 0;
    std::uint64_t preemptions = 0;
    /** Instance-pool creation failures (address space exhausted). */
    std::uint64_t rejected = 0;
    /**
     * Times the HFI enabled/config state did not survive a preemption
     * save/restore round trip. Always 0 unless the §3.3.3 kernel
     * restore path regresses; asserted by tests.
     */
    std::uint64_t hfiStateMismatches = 0;
    /** Fault/timeout/retry/quarantine accounting (see serve/faults.h). */
    RobustnessStats robustness{};

    void
    merge(const WorkerStats &o)
    {
        instancesCreated += o.instancesCreated;
        reclaimBatches += o.reclaimBatches;
        preemptions += o.preemptions;
        rejected += o.rejected;
        hfiStateMismatches += o.hfiStateMismatches;
        robustness.merge(o.robustness);
    }
};

class Worker
{
  public:
    /**
     * A worker with its full per-core stack. @p engine_seed keys the
     * fault injector (when config.faults.rate > 0) so fault schedules
     * follow the engine's master seed.
     */
    Worker(unsigned index, const WorkerConfig &config,
           const Handler &handler, std::uint64_t engine_seed = 0);

    Worker(Worker &&) = delete;

    /** Virtual time at which this worker can next begin service. */
    double freeNs() const { return freeNs_; }

    /**
     * Serve @p req to completion (called by the engine event loop).
     * @return the virtual time its response left. Every request gets
     *         one: served, failed after its retries (an error response)
     *         or rejected for want of an instance (a refusal).
     */
    double serve(const Request &req);

    const WorkerStats &stats() const { return stats_; }
    const faas::LatencyRecorder &latencies() const { return latencies_; }
    core::HfiContext &context() { return ctx_; }

    /** This worker's (global) core index. */
    unsigned index() const { return index_; }

    /**
     * Attach the engine-wide trace: this worker records into its core's
     * ring (serve() request envelope, robustness transitions) and wires
     * the same ring into its HfiContext and Scheduler. The Trace handle
     * is kept so a watchdog timeout can fire the flight recorder.
     */
    void attachTrace(obs::Trace *trace);

    std::uint64_t contextSwitches() const { return sched_.totalSwitches(); }

  private:
    /** What one attempt inside the sandbox did (see runProtected). */
    struct AttemptOutcome
    {
        bool completed = true; ///< handler ran to completion, response sent
        bool timedOut = false; ///< watchdog killed a wedged attempt
        bool poisoned = false; ///< instance is suspect; do not reuse
        /** MSR reason when the attempt raised an HFI exit. */
        core::ExitReason exitReason = core::ExitReason::None;
    };

    /** Run the handler under the configured protection scheme. */
    AttemptOutcome runProtected(sfi::Sandbox &sandbox, std::uint32_t seed,
                                double service_start_ns, FaultKind kind);
    /** The handler body plus injected stall/poison effects. */
    void runBody(sfi::Sandbox &sandbox, std::uint32_t seed, FaultKind kind,
                 AttemptOutcome &out);
    /** Timer preemptions for a handler that ran past the quantum. */
    void preemptForQuantum(double service_start_ns);
    /** Queue @p instance for teardown; flush once a batch is full. */
    void retire(std::unique_ptr<sfi::Sandbox> instance);
    /** Batched teardown of every retired instance (§6.3.1). */
    void flushRetired();
    /**
     * A fresh instance from this core's arena, counted in
     * instancesCreated. When the arena is full and a partial teardown
     * batch is pending, the batch is flushed and the create retried
     * once. nullptr when nothing fits.
     */
    std::unique_ptr<sfi::Sandbox> createInstance();
    /**
     * An instance to run the attempt in: a fresh per-request create
     * (poolSize 0, the stock path) or the next warm pool member —
     * draining any respawn whose delay elapsed by virtual time
     * @p wall_ns first, and waiting for one (*wait_ns) if the pool is
     * momentarily dry.
     */
    std::unique_ptr<sfi::Sandbox> acquireInstance(double wall_ns,
                                                  double *wait_ns);

    unsigned index_;
    WorkerConfig config_;
    Handler handler_;

    // The per-core stack, in construction order.
    vm::VirtualClock clock_;
    vm::Mmu mmu_;
    core::HfiContext ctx_;
    os::Scheduler sched_;
    int serverPid = -1;
    int tenantPid = -1;

    /** Retired instances awaiting the next batched teardown. */
    std::vector<std::unique_ptr<sfi::Sandbox>> retired;

    /** Fault injector (engaged when config.faults.rate > 0). */
    std::optional<FaultInjector> injector_;
    /** Warm instances (FIFO reuse), when config.poolSize > 0. */
    std::deque<std::unique_ptr<sfi::Sandbox>> pool_;
    /** Virtual times pending respawns become ready (monotone). */
    std::deque<double> respawns_;

    double freeNs_ = 0;
    WorkerStats stats_;
    faas::LatencyRecorder latencies_;

    /** Engine trace (flight recorder) and this core's ring. */
    obs::Trace *engineTrace_ = nullptr;
    obs::TraceBuffer *trace_ = nullptr;
};

} // namespace hfi::serve

#endif // HFI_SERVE_WORKER_H
