/**
 * @file
 * The multi-core sandbox serving engine.
 *
 * N simulated cores — each a serve::Worker with its own VirtualClock,
 * Mmu arena, HfiContext (per-core region registers and exit-reason MSR)
 * and os::Scheduler — pull requests from sharded run queues with work
 * stealing and serve them under a Table 1 protection scheme. Load is
 * generated either open-loop (seeded Poisson arrivals, with bounded
 * queues and shedding at admission) or closed-loop (the Table 1 client
 * population). Per-worker latency accumulators are merged into global
 * p50/p95/p99/p999.
 *
 * A run is: partition, drive each partition, reduce once. A partition
 * is a set of workers plus the arrivals routed to their shards; drive()
 * is a sequential discrete-event simulation over it: at every step the
 * earliest actionable event (an arrival, or the earliest possible
 * service start across the partition's cores, ties to the lowest core
 * index) is processed. The sequential driver is the one-partition case;
 * realThreads drives one single-worker partition per host thread. All
 * state is seeded and virtual-clocked, so a run is bit-for-bit
 * reproducible — and, when requests do not contend, the per-request
 * latency multiset is identical for any worker count.
 */

#ifndef HFI_SERVE_ENGINE_H
#define HFI_SERVE_ENGINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "faas/latency.h"
#include "obs/trace.h"
#include "serve/load_gen.h"
#include "serve/request.h"
#include "serve/worker.h"

namespace hfi::serve
{

/** How arrivals are generated. */
enum class LoadMode
{
    OpenLoop,   ///< seeded Poisson process at a fixed rate
    ClosedLoop, ///< fixed client population, send-on-response
};

/** How arrivals map to queue shards. */
enum class Sharding
{
    RoundRobin,  ///< request id modulo worker count
    SingleShard, ///< everything lands on shard 0 (stealing stress test)
};

struct EngineConfig
{
    unsigned workers = 1;
    LoadMode mode = LoadMode::OpenLoop;

    /** Total requests to generate. */
    unsigned requests = 400;
    /** Open loop: mean interarrival gap in virtual ns. */
    double meanInterarrivalNs = 100'000.0;
    /** Closed loop: client population. */
    unsigned clients = 100;
    /** Master seed for arrivals and per-request handler seeds. */
    std::uint64_t seed = 1;

    /** Per-shard queue bound; 0 = unbounded (no shedding). */
    std::size_t queueCapacity = 0;
    bool workStealing = true;
    Sharding sharding = Sharding::RoundRobin;

    /**
     * Run one host std::thread per simulated core instead of the
     * sequential event loop. Only configurations whose cores are
     * provably independent qualify — open loop, round-robin sharding,
     * no work stealing — because then the global event loop decomposes
     * into per-shard loops with no cross-core event ordering, and the
     * merged result is bit-identical to the sequential run (asserted by
     * tests and the serve_scaling --threads gate). With more than one
     * worker, anything else (closed loop couples clients to
     * completions; stealing and single-shard routing couple queues) is
     * rejected by run() with std::invalid_argument; one worker runs
     * the sequential driver. Handlers must be pure functions of
     * (sandbox, seed) — already required for determinism — and are
     * called concurrently in this mode.
     */
    bool realThreads = false;

    /**
     * Caller-owned event trace (nullptr = tracing off). Must be built
     * with cores() >= workers; each worker records into the ring of its
     * core index (single-writer even in realThreads mode), the queue
     * shards record admissions into their owning core's ring, and the
     * HfiContext/Scheduler of every core are wired to the same ring.
     * Ignored when HFI_OBS=OFF compiled the record sites away.
     */
    obs::Trace *trace = nullptr;

    /** Per-worker knobs (scheme, pool, scheduler, quantum). */
    WorkerConfig worker{};
};

/** Merged engine-wide results. */
struct ServeResult
{
    std::size_t served = 0;
    std::size_t shed = 0;     ///< dropped at admission (queue full)
    std::size_t rejected = 0; ///< dropped at dispatch (pool exhausted)
    std::size_t stolen = 0;   ///< requests served off another shard
    std::size_t maxQueueDepth = 0;

    /**
     * Run start to last completion. Open loop starts at virtual time 0;
     * closed-loop clients start when the workers finish booting (the
     * latest worker's free time after pool warm-up).
     */
    double durationNs = 0;
    double throughputRps = 0;
    double meanLatencyNs = 0;
    faas::Percentiles latency{};

    std::uint64_t contextSwitches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t instancesCreated = 0;
    std::uint64_t reclaimBatches = 0;
    std::uint64_t hfiStateMismatches = 0;

    /** Host threads the run actually used (1 = sequential driver). */
    unsigned usedThreads = 1;

    /**
     * Engine-wide robustness accounting (exits by reason, retries,
     * timeouts, quarantines, respawns, failures). All zero on the
     * happy path.
     */
    RobustnessStats robustness{};
    /**
     * The same breakdown per core, index = worker index. Each entry's
     * `shed` comes from that core's queue shard — the single source of
     * truth ServeResult::shed is derived from, in both the sequential
     * and the threaded driver.
     */
    std::vector<RobustnessStats> perCore{};

    /**
     * Merged per-request latencies, for tests: in worker-index order,
     * each worker's in its service order — the same in both drivers.
     */
    faas::LatencyRecorder latencies{};
};

/**
 * True when @p a and @p b agree on every field except usedThreads,
 * which differs between the drivers by design (callers assert it
 * apart). The one equality of the threaded-vs-sequential and
 * zero-perturbation gates.
 */
bool identical(const ServeResult &a, const ServeResult &b);

class ServeEngine
{
  public:
    /**
     * Throws std::invalid_argument naming the field when @p config
     * cannot run: zero workers, an open loop whose mean interarrival
     * gap is not finite and positive, a closed loop with no clients, or
     * a zero worker.teardownBatch.
     */
    ServeEngine(EngineConfig config, Handler handler);

    /**
     * Serve the configured load. Throws std::invalid_argument for a
     * realThreads configuration that does not decompose (see
     * EngineConfig::realThreads).
     */
    ServeResult run();

  private:
    /**
     * Workers whose shards no other partition touches, the arrivals
     * routed to those shards, and what the partition's queues saw
     * (filled by drive(), indexed like workers).
     */
    struct Partition
    {
        std::vector<std::unique_ptr<Worker>> workers;
        std::unique_ptr<ArrivalSource> source;
        /** Virtual time the load starts (ServeResult::durationNs). */
        double startNs = 0;
        std::vector<std::size_t> shed;
        std::size_t stolen = 0;
        std::size_t maxQueueDepth = 0;
    };

    /** Build the workers and split the load. */
    std::vector<Partition> partition() const;
    /** Run one partition's event loop until its source is dry. */
    static void drive(Partition &part, const EngineConfig &config);
    /** Fold every partition, in worker-index order, into one result. */
    static ServeResult reduce(const std::vector<Partition> &parts);

    EngineConfig config_;
    Handler handler_;
};

} // namespace hfi::serve

#endif // HFI_SERVE_ENGINE_H
