#include "serve/worker.h"

#include <algorithm>
#include <string>

#include "core/checker.h"

namespace hfi::serve
{

const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::Unsafe: return "Lucet(Unsafe)";
      case Scheme::HfiNative: return "Lucet+HFI";
      case Scheme::HfiSwitchOnExit: return "Lucet+HFI(soe)";
      case Scheme::Swivel: return "Lucet+Swivel";
    }
    return "?";
}

Worker::Worker(unsigned index, const WorkerConfig &config,
               const Handler &handler, std::uint64_t engine_seed)
    : index_(index), config_(config), handler_(handler),
      mmu_(clock_, config_.vaBits), ctx_(clock_), sched_(ctx_)
{
    serverPid = sched_.createProcess("server-core" + std::to_string(index));
    tenantPid = sched_.createProcess("tenant-core" + std::to_string(index));

    if (config_.faults.rate > 0)
        injector_.emplace(config_.faults, engine_seed);
    // Pre-warm the pool; creation is charged to the clock before the
    // first request, like a platform's boot phase.
    for (std::size_t i = 0; i < config_.poolSize; ++i) {
        auto s = createInstance();
        if (!s)
            break;
        pool_.push_back(std::move(s));
    }
    freeNs_ = clock_.nowNs();
}

void
Worker::attachTrace(obs::Trace *trace)
{
    engineTrace_ = trace;
    trace_ = trace && index_ < trace->cores() ? &trace->buffer(index_)
                                              : nullptr;
    ctx_.setTrace(trace_);
    sched_.setTrace(trace_);
    if (!trace)
        return;
    // Export-time labelers: events store raw enum values; these spell
    // them out in trace JSON and flight dumps (obs itself cannot name
    // the serve/core enums — it sits below both).
    trace->setLabeler(obs::EventType::SandboxExit, [](const obs::Event &e) {
        return core::toString(static_cast<core::ExitReason>(e.b));
    });
    trace->setLabeler(obs::EventType::HfiFault, [](const obs::Event &e) {
        return core::toString(static_cast<core::ExitReason>(e.a));
    });
    trace->setLabeler(obs::EventType::FaultInject, [](const obs::Event &e) {
        return faultKindName(static_cast<FaultKind>(e.b));
    });
}

void
Worker::preemptForQuantum(double service_start_ns)
{
    if (config_.quantumNs <= 0 || !config_.dispatchViaScheduler)
        return;
    const double elapsed = clock_.nowNs() - service_start_ns;
    auto slices =
        static_cast<std::uint64_t>(elapsed / config_.quantumNs);
    // A sanity cap: one request cannot eat more timer ticks than a
    // pathological config would generate (keeps runaway costs bounded).
    slices = std::min<std::uint64_t>(slices, 64);

    const bool wasEnabled = ctx_.enabled();
    const core::SandboxConfig wasConfig = ctx_.config();
    for (std::uint64_t i = 0; i < slices; ++i) {
        // Timer fires: the kernel switches to another process and back,
        // xsave/xrstor-ing the live HFI register file both ways.
        sched_.switchTo(serverPid);
        sched_.switchTo(tenantPid);
        ++stats_.preemptions;
    }
    // The §3.3.3 guarantee: a process preempted mid-sandbox resumes
    // still sandboxed, with the same configuration.
    if (ctx_.enabled() != wasEnabled ||
        (wasEnabled &&
         (ctx_.config().isHybrid != wasConfig.isHybrid ||
          ctx_.config().switchOnExit != wasConfig.switchOnExit ||
          ctx_.config().isSerialized != wasConfig.isSerialized)))
        ++stats_.hfiStateMismatches;
}

void
Worker::runBody(sfi::Sandbox &sandbox, std::uint32_t seed, FaultKind kind,
                AttemptOutcome &out)
{
    if (kind == FaultKind::Stall) {
        if (config_.requestTimeoutNs > 0) {
            // The handler wedges and never returns; the watchdog kills
            // the attempt at the deadline, leaving the instance in an
            // unknown state.
            clock_.tick(clock_.nsToCycles(config_.requestTimeoutNs));
            out.completed = false;
            out.timedOut = true;
            out.poisoned = true;
            return;
        }
        // No watchdog: the livelock eventually clears and the request
        // completes — slowly. (This is why deadlines matter.)
        clock_.tick(clock_.nsToCycles(injector_->stallNs()));
    }
    handler_(sandbox, seed);
    if (kind == FaultKind::Poison)
        // The response is produced, but the request corrupted instance
        // state on the way out — it must not serve another request.
        out.poisoned = true;
}

Worker::AttemptOutcome
Worker::runProtected(sfi::Sandbox &sandbox, std::uint32_t seed,
                     double service_start_ns, FaultKind kind)
{
    // Every scheme runs the handler inside the springboard pair. The
    // HFI schemes wrap it in one hfi_enter per connection: HfiNative a
    // serialized native sandbox ("two state transitions per
    // connection", §6.5); HfiSwitchOnExit a runtime that launches the
    // tenant with switch-on-exit (§4.5). Under Unsafe/Swivel an
    // injected bad access becomes a guard-page SIGSEGV; the recorded
    // reason still comes from the real checker (FaultInjector::raise).
    const bool hfi = config_.scheme == Scheme::HfiNative ||
                     config_.scheme == Scheme::HfiSwitchOnExit;
    if (hfi) {
        core::SandboxConfig sc;
        sc.isHybrid = false;
        if (config_.scheme == Scheme::HfiNative) {
            sc.isSerialized = true;
            sc.exitHandler = 0x7000'0000;
        } else {
            sc.switchOnExit = true;
        }
        ctx_.enter(sc);
    }

    AttemptOutcome out;
    sandbox.enter();
    runBody(sandbox, seed, kind, out);
    if (out.completed && faultRaisesExit(kind)) {
        out.exitReason = injector_->raise(kind, ctx_);
        out.completed = false;
    }
    if (out.completed)
        preemptForQuantum(service_start_ns);
    sandbox.exit();

    if (hfi) {
        if (out.completed) {
            ctx_.exit();
        } else {
            // The trap already left HFI mode (onFault/onSyscall
            // disabled it); a watchdog kill finds the sandbox still
            // live and tears it down as a hardware fault. Either way
            // the runtime's handler reads the MSR to classify the exit
            // (§3.3.2).
            if (ctx_.enabled())
                ctx_.onFault(core::ExitReason::HardwareFault);
            ctx_.readExitReasonMsr();
        }
    }
    return out;
}

void
Worker::retire(std::unique_ptr<sfi::Sandbox> instance)
{
    retired.push_back(std::move(instance));
    if (retired.size() >= config_.teardownBatch)
        flushRetired();
}

void
Worker::flushRetired()
{
    // One madvise spanning the whole batch of adjacent instances — the
    // §6.3.1 batched teardown; destruction then releases the VA so the
    // pool's arena stays bounded.
    std::vector<sfi::Sandbox *> raw;
    raw.reserve(retired.size());
    for (const auto &s : retired)
        raw.push_back(s.get());
    sfi::reclaim(mmu_, raw, sfi::ReclaimPolicy::Batched, retired.size());
    ++stats_.reclaimBatches;
    retired.clear();
}

std::unique_ptr<sfi::Sandbox>
Worker::createInstance()
{
    auto create = [this] {
        return std::make_unique<sfi::Sandbox>(mmu_, ctx_, config_.backend,
                                              config_.sandboxOptions);
    };
    auto s = create();
    if (!s->valid() && !retired.empty()) {
        // The arena is full, partly of retired instances waiting for a
        // full teardown batch: reclaim the partial batch now to free
        // their address space, and try once more.
        s.reset();
        flushRetired();
        s = create();
    }
    if (!s->valid())
        return nullptr;
    ++stats_.instancesCreated;
    return s;
}

std::unique_ptr<sfi::Sandbox>
Worker::respawn([[maybe_unused]] double wall_ns)
{
    auto s = createInstance();
    if (s) {
        ++stats_.robustness.respawns;
        HFI_OBS_RECORD(trace_, obs::EventType::Respawn, wall_ns,
                       stats_.robustness.respawns);
    }
    return s;
}

std::unique_ptr<sfi::Sandbox>
Worker::acquireInstance(double wall_ns, double *wait_ns)
{
    *wait_ns = 0;
    if (config_.poolSize == 0) {
        // FaaS instance-per-request: a cold instance from this core's
        // pool shard. Creation cost (mmap + backend setup) is part of
        // the request's latency, as it is on a real platform.
        return createInstance();
    }
    // Background respawns whose delay elapsed: the platform recreated
    // quarantined slots off the critical path; the creation work is
    // charged at the first dispatch that can observe the new instance.
    while (!respawns_.empty() && respawns_.front() <= wall_ns) {
        respawns_.pop_front();
        if (auto s = respawn(wall_ns))
            pool_.push_back(std::move(s));
    }
    if (pool_.empty() && !respawns_.empty()) {
        // Every warm slot is quarantined right now. Quarantine always
        // schedules a respawn, so the pool can momentarily dry up but
        // never drains for good: wait for the earliest respawn.
        ++stats_.robustness.poolWaits;
        *wait_ns = respawns_.front() - wall_ns;
        respawns_.pop_front();
        if (auto s = respawn(wall_ns))
            return s;
    }
    if (pool_.empty()) {
        // Zero warm slots survived construction (VA exhaustion); fall
        // back to a cold synchronous create.
        return createInstance();
    }
    auto inst = std::move(pool_.front());
    pool_.pop_front();
    return inst;
}

double
Worker::serve(const Request &req)
{
    // Queueing is arithmetic (the clock never idles): service begins at
    // the later of the worker becoming free and the request arriving.
    const double begin = std::max(freeNs_, req.arrivalNs);
    // Virtual wall time the current attempt's dispatch starts; retries
    // push it forward by the failed service plus backoff.
    double wall = begin;

    for (unsigned attempt = 0;; ++attempt) {
        HFI_OBS_RECORD(trace_, obs::EventType::SandboxEnter, wall, req.id,
                       attempt);
        const FaultKind kind =
            injector_ ? injector_->decide(req.id, attempt) : FaultKind::None;
        if (kind != FaultKind::None) {
            ++stats_.robustness.faultsInjected;
            HFI_OBS_RECORD(trace_, obs::EventType::FaultInject, wall, req.id,
                           static_cast<std::uint64_t>(kind));
        }

        const double service_start = clock_.nowNs();
        if (config_.dispatchViaScheduler)
            sched_.switchTo(tenantPid);

        double poolWait = 0;
        std::unique_ptr<sfi::Sandbox> instance =
            acquireInstance(wall, &poolWait);
        if (!instance) {
            // Nothing fits in the core's arena: the refusal is an
            // immediate error response, so a closed-loop client
            // unblocks as it does for a failed request.
            ++stats_.rejected;
            const double done =
                wall + poolWait + (clock_.nowNs() - service_start);
            HFI_OBS_RECORD(trace_, obs::EventType::SandboxExit, done,
                           req.id,
                           static_cast<std::uint64_t>(core::ExitReason::None));
            const double post_start = clock_.nowNs();
            if (config_.dispatchViaScheduler)
                sched_.switchTo(serverPid);
            freeNs_ = done + (clock_.nowNs() - post_start);
            return done;
        }
        // Warm-pool dispatch: the core's register file was swapped by
        // process switches since this instance last ran, so its
        // enforcement state must be re-installed — before the scheme's
        // own (region-locking) hfi_enter. Cold per-request instances
        // were created under the live bank and need nothing.
        if (config_.poolSize > 0) {
            HFI_OBS_RECORD(trace_, obs::EventType::RegionRebind, wall,
                           req.id);
            instance->rebindRegions();
        }
        if (poolWait > 0)
            HFI_OBS_RECORD(trace_, obs::EventType::PoolWait, wall, req.id);

        AttemptOutcome at =
            runProtected(*instance, req.seed, service_start, kind);

        double service = clock_.nowNs() - service_start;
        if (config_.scheme == Scheme::Swivel &&
            config_.swivelEffect.computeFactor > 1.0) {
            // Swivel's hardening multiplies the executed cycles; charge
            // the extra time to the clock so the whole simulation stays
            // causal.
            const double extra =
                service * (config_.swivelEffect.computeFactor - 1.0);
            clock_.tick(clock_.nsToCycles(extra));
            service += extra;
        }
        // Watchdog: an attempt that ran past the deadline is counted
        // out even if it eventually produced a response — the client
        // has given up. (Injected stalls hit this in runBody already.)
        if (config_.requestTimeoutNs > 0 && !at.timedOut &&
            service > config_.requestTimeoutNs)
            at.timedOut = true;

        const double done = wall + poolWait + service;
        HFI_OBS_RECORD(trace_, obs::EventType::SandboxExit, done, req.id,
                       static_cast<std::uint64_t>(at.exitReason));
        if (at.timedOut) {
            HFI_OBS_RECORD(trace_, obs::EventType::WatchdogTimeout, done,
                           req.id, attempt);
            HFI_OBS_STMT(if (engineTrace_ &&
                             engineTrace_->config().flightOnWatchdog)
                             engineTrace_->flightDump("watchdog-timeout"));
        }

        // Post-response work — recycling or quarantining the instance
        // and switching back to the server process — delays the *next*
        // attempt/request but is invisible to this one's latency: the
        // response (or fault signal) has already left.
        const double post_start = clock_.nowNs();
        if (at.poisoned) {
            // Quarantine: tear the suspect instance down (it joins the
            // batched-madvise path); a warm pool schedules a background
            // respawn for its slot.
            ++stats_.robustness.quarantines;
            HFI_OBS_RECORD(trace_, obs::EventType::Quarantine, done, req.id);
            if (config_.poolSize > 0)
                respawns_.push_back(done + config_.respawnDelayNs);
            retire(std::move(instance));
        } else if (config_.poolSize > 0) {
            // HFI contained the fault (or the request was clean): the
            // instance state is intact, back into the warm pool.
            pool_.push_back(std::move(instance));
        } else {
            retire(std::move(instance));
        }
        if (config_.dispatchViaScheduler) {
            if (at.completed)
                sched_.switchTo(serverPid);
            else
                // The kernel delivers the fault signal to the trusted
                // runtime on its way back (§3.3.2).
                sched_.deliverFault(serverPid);
        }
        const double post = clock_.nowNs() - post_start;

        if (at.completed && !at.timedOut) {
            freeNs_ = done + post;
            ++stats_.robustness.served;
            latencies_.add(done - req.arrivalNs);
            return done;
        }

        // Failed attempt: account it, then retry or give up.
        if (at.timedOut)
            ++stats_.robustness.timeouts;
        if (at.exitReason != core::ExitReason::None) {
            ++stats_.robustness.exits;
            ++stats_.robustness
                  .exitsByReason[static_cast<unsigned>(at.exitReason)];
        }

        if (attempt >= config_.maxRetries) {
            ++stats_.robustness.failed;
            freeNs_ = done + post;
            return done; // the error response leaves before cleanup
        }
        ++stats_.robustness.retries;
        // Exponential backoff before the next attempt; the worker is
        // idle for the gap (arithmetic time, like queueing delay).
        wall = done + post +
               config_.retryBackoffNs * static_cast<double>(1ULL << attempt);
        HFI_OBS_RECORD(trace_, obs::EventType::Retry, wall, req.id,
                       attempt + 1);
    }
}

} // namespace hfi::serve
