#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "serve/shard_queue.h"

namespace hfi::serve
{

/** Throw std::invalid_argument naming the first field that cannot run. */
static void
checkConfig(const EngineConfig &config)
{
    const auto fail = [](const char *why) {
        throw std::invalid_argument(std::string("EngineConfig::") + why);
    };
    if (config.workers == 0)
        fail("workers must be at least 1");
    if (config.mode == LoadMode::OpenLoop &&
        !(std::isfinite(config.meanInterarrivalNs) &&
          config.meanInterarrivalNs > 0))
        fail("meanInterarrivalNs must be finite and positive");
    if (config.mode == LoadMode::ClosedLoop && config.clients == 0)
        fail("clients must be at least 1");
    if (config.worker.teardownBatch == 0)
        fail("worker.teardownBatch must be at least 1");
}

ServeEngine::ServeEngine(EngineConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler))
{
    checkConfig(config_);
}

/**
 * realThreads only runs configurations whose cores are independent.
 * With one worker every configuration is a single partition already.
 */
static void
checkDecomposable(const EngineConfig &config)
{
    if (!config.realThreads || config.workers <= 1)
        return;
    if (config.mode == LoadMode::ClosedLoop)
        throw std::invalid_argument(
            "realThreads: closed-loop load couples arrivals to completions "
            "on every core");
    if (config.workStealing)
        throw std::invalid_argument(
            "realThreads: work stealing couples the queue shards");
    if (config.sharding == Sharding::SingleShard)
        throw std::invalid_argument(
            "realThreads: single-shard routing sends every arrival to "
            "shard 0");
}

ServeResult
ServeEngine::run()
{
    checkDecomposable(config_);
    std::vector<Partition> parts = partition();
    if (parts.size() == 1) {
        drive(parts[0], config_);
    } else {
        // A handler that throws on a partition's thread is rethrown
        // here after every thread joined, as the sequential run would.
        std::vector<std::exception_ptr> errors(parts.size());
        {
            std::vector<std::jthread> threads;
            threads.reserve(parts.size());
            for (std::size_t i = 0; i < parts.size(); ++i) {
                threads.emplace_back([this, &parts, &errors, i] {
                    try {
                        drive(parts[i], config_);
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                });
            }
        }
        for (const auto &e : errors)
            if (e)
                std::rethrow_exception(e);
    }
    return reduce(parts);
}

std::vector<ServeEngine::Partition>
ServeEngine::partition() const
{
    const unsigned n = config_.workers;
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(n);
    for (unsigned w = 0; w < n; ++w)
        workers.push_back(std::make_unique<Worker>(w, config_.worker,
                                                   handler_, config_.seed));

    std::vector<Partition> parts;
    if (config_.mode == LoadMode::ClosedLoop) {
        // Clients start once every worker has booted (warmed its pool),
        // so no request queues behind the platform's start-up.
        Partition &part = parts.emplace_back();
        for (const auto &w : workers)
            part.startNs = std::max(part.startNs, w->freeNs());
        part.workers = std::move(workers);
        part.source = std::make_unique<ClosedLoopSource>(
            config_.clients, config_.requests, part.startNs, config_.seed);
        return parts;
    }

    std::vector<Request> arrivals = poissonArrivals(
        config_.requests, config_.meanInterarrivalNs, config_.seed, 0.0);
    if (!config_.realThreads || n == 1) {
        Partition &part = parts.emplace_back();
        part.workers = std::move(workers);
        part.source = std::make_unique<VectorSource>(std::move(arrivals));
        return parts;
    }

    // With round-robin sharding and no stealing, worker w only ever
    // touches shard w, and open-loop arrivals do not depend on
    // completions — so the global event loop is the disjoint union of n
    // per-shard event loops. Split the one global arrival sequence by
    // shard; each partition then sees exactly the per-shard event order
    // (including the admit-vs-serve tie break and bounded-queue
    // shedding) of the sequential loop, so the result is bit-identical.
    std::vector<std::vector<Request>> split(n);
    for (const Request &req : arrivals)
        split[static_cast<std::size_t>(req.id % n)].push_back(req);
    parts.resize(n);
    for (unsigned w = 0; w < n; ++w) {
        parts[w].workers.push_back(std::move(workers[w]));
        parts[w].source = std::make_unique<VectorSource>(std::move(split[w]));
    }
    return parts;
}

void
ServeEngine::drive(Partition &part, const EngineConfig &config)
{
    auto &workers = part.workers;
    ArrivalSource &source = *part.source;
    const unsigned n = static_cast<unsigned>(workers.size());
    ShardedQueues queues(n, config.queueCapacity);
    std::size_t stolen = 0;
    // This thread tears down one instance batch per core it drives.
    sfi::SpareStoreScope spares(n);

    // Wire the trace: worker w (and its HfiContext/Scheduler) records
    // into the ring of its *global* core index, and so does queue shard
    // w — a threaded partition drives one worker whose index is the
    // core, so the per-core streams come out identical to the
    // sequential run's.
    HFI_OBS_STMT(if (config.trace) for (unsigned w = 0; w < n; ++w) {
        workers[w]->attachTrace(config.trace);
        queues.setTrace(w, &config.trace->buffer(workers[w]->index()));
    });

    std::optional<Request> staged = source.next();

    while (true) {
        // The earliest possible service start across all cores: each
        // worker considers its own shard first, then (work stealing)
        // the deepest other shard. Ties break to the lowest core index,
        // so the schedule is a pure function of the configuration.
        int bestWorker = -1;
        int bestShard = -1;
        double bestStart = 0;
        for (unsigned w = 0; w < n; ++w) {
            const int shard = queues.pickFor(w, config.workStealing);
            if (shard < 0)
                continue;
            const double start = std::max(
                workers[w]->freeNs(),
                queues.front(static_cast<unsigned>(shard)).arrivalNs);
            if (bestWorker < 0 || start < bestStart) {
                bestWorker = static_cast<int>(w);
                bestShard = shard;
                bestStart = start;
            }
        }

        // Admit any arrival that happens strictly before that start
        // (at an exact tie the server dequeues first, so an arrival at
        // the same instant sees the freed slot).
        if (staged &&
            (bestWorker < 0 || staged->arrivalNs < bestStart)) {
            const unsigned shard =
                config.sharding == Sharding::SingleShard
                    ? 0
                    : static_cast<unsigned>(staged->id % n);
            queues.offer(shard, *staged);
            staged = source.next();
            continue;
        }

        if (bestWorker < 0)
            break; // no queued work and the source is dry

        const Request req = queues.take(static_cast<unsigned>(bestShard));
        if (bestShard != bestWorker)
            ++stolen;
        // Pop/steal are acts of the serving core: they go to *its* ring
        // (a steal names the victim core in b), stamped at the service
        // start the event loop computed.
        HFI_OBS_STMT(if (config.trace) config.trace
                         ->buffer(workers[bestWorker]->index())
                         .record(bestShard != bestWorker
                                     ? obs::EventType::QueueSteal
                                     : obs::EventType::QueuePop,
                                 bestStart, req.id,
                                 workers[bestShard]->index()));
        // Every request gets a response — served, failed after its
        // retries or rejected — so a closed-loop client always unblocks.
        source.onComplete(req, workers[bestWorker]->serve(req));
        // A closed-loop source may only now have a next arrival.
        if (!staged)
            staged = source.next();
    }

    part.shed.resize(n);
    for (unsigned w = 0; w < n; ++w)
        part.shed[w] = queues.shedCount(w);
    part.stolen = stolen;
    part.maxQueueDepth = queues.maxDepth();
}

ServeResult
ServeEngine::reduce(const std::vector<Partition> &parts)
{
    ServeResult res;
    res.usedThreads = static_cast<unsigned>(parts.size());
    WorkerStats total;
    for (const Partition &part : parts) {
        double lastFree = part.startNs;
        for (std::size_t w = 0; w < part.workers.size(); ++w) {
            const Worker &worker = *part.workers[w];
            // A core's shed comes from its queue shard, the one source
            // of truth the engine-wide total sums.
            WorkerStats core = worker.stats();
            core.robustness.shed = part.shed[w];
            total.merge(core);
            res.perCore.push_back(core.robustness);
            res.contextSwitches += worker.contextSwitches();
            res.latencies.merge(worker.latencies());
            lastFree = std::max(lastFree, worker.freeNs());
        }
        res.stolen += part.stolen;
        res.maxQueueDepth = std::max(res.maxQueueDepth, part.maxQueueDepth);
        res.durationNs = std::max(res.durationNs, lastFree - part.startNs);
    }

    res.served = total.robustness.served;
    res.shed = total.robustness.shed;
    res.rejected = total.rejected;
    res.preemptions = total.preemptions;
    res.instancesCreated = total.instancesCreated;
    res.reclaimBatches = total.reclaimBatches;
    res.hfiStateMismatches = total.hfiStateMismatches;
    res.robustness = total.robustness;
    res.throughputRps = res.latencies.throughput(res.durationNs);
    res.meanLatencyNs = res.latencies.mean();
    res.latency = res.latencies.percentiles();
    return res;
}

bool
identical(const ServeResult &a, const ServeResult &b)
{
    const auto fields = [](const ServeResult &r) {
        return std::tie(r.served, r.shed, r.rejected, r.stolen,
                        r.maxQueueDepth, r.durationNs, r.throughputRps,
                        r.meanLatencyNs, r.latency.p50, r.latency.p95,
                        r.latency.p99, r.latency.p999, r.contextSwitches,
                        r.preemptions, r.instancesCreated, r.reclaimBatches,
                        r.hfiStateMismatches, r.robustness, r.perCore);
    };
    return fields(a) == fields(b) &&
           a.latencies.values() == b.latencies.values();
}

} // namespace hfi::serve
