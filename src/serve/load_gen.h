/**
 * @file
 * Load generation for the serving engine: an *open-loop* Poisson
 * arrival process and the *closed-loop* client population of Table 1.
 *
 * The distinction matters for tail latency (and is the reason both
 * exist, see EXPERIMENTS.md): a closed loop self-throttles — a slow
 * server slows its own clients down, hiding overload — while an open
 * loop keeps arriving at the configured rate regardless of server
 * state, which is what exposes queueing collapse and makes admission
 * control meaningful. Both generators are seeded and fully
 * deterministic on the virtual clock.
 */

#ifndef HFI_SERVE_LOAD_GEN_H
#define HFI_SERVE_LOAD_GEN_H

#include <cstdint>
#include <optional>
#include <vector>

#include "serve/request.h"

namespace hfi::serve
{

/** splitmix64 step — the engine's only RNG primitive. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Deterministic per-request handler seed for open-loop request @p id. */
std::uint32_t mixSeed(std::uint64_t seed, std::uint64_t id);

/**
 * A source of requests, pulled by the engine in arrival order.
 *
 * next() returns the next request to arrive, or nullopt when the source
 * is (possibly temporarily) dry. Closed-loop sources replenish when
 * onComplete() reports a finished request.
 */
class ArrivalSource
{
  public:
    virtual ~ArrivalSource() = default;

    virtual std::optional<Request> next() = 0;

    /** A previously issued request completed at @p done_ns. */
    virtual void onComplete(const Request &req, double done_ns)
    {
        (void)req;
        (void)done_ns;
    }
};

/**
 * Open loop: @p requests arrivals with exponential(mean) interarrival
 * gaps — a Poisson process — generated up front from @p seed, in time
 * order. Request i carries id i and seed mixSeed(@p seed, i).
 */
std::vector<Request> poissonArrivals(unsigned requests,
                                     double mean_interarrival_ns,
                                     std::uint64_t seed, double start_ns = 0);

/**
 * A source over a pre-built arrival list (already in time order).
 *
 * This is how the engine replays open-loop load: the arrival sequence
 * is generated once up front (poissonArrivals); the sequential driver
 * replays all of it, the threaded driver one shard's partition per
 * host thread, through the same event loop.
 */
class VectorSource : public ArrivalSource
{
  public:
    explicit VectorSource(std::vector<Request> arrivals)
        : arrivals_(std::move(arrivals))
    {
    }

    std::optional<Request>
    next() override
    {
        if (nextIndex >= arrivals_.size())
            return std::nullopt;
        return arrivals_[nextIndex++];
    }

  private:
    std::vector<Request> arrivals_;
    std::size_t nextIndex = 0;
};

/**
 * Closed loop: @p clients concurrent clients, each sending its next
 * request the moment its previous response lands (the Table 1 model).
 * Earliest-ready client issues first; ties go to the lowest index.
 *
 * Per-request handler seeds are mixSeed(@p seed, issue index), the
 * open-loop convention, so runs with different engine seeds draw
 * different work.
 */
class ClosedLoopSource : public ArrivalSource
{
  public:
    ClosedLoopSource(unsigned clients, unsigned requests, double start_ns,
                     std::uint64_t seed = 0);

    std::optional<Request> next() override;
    void onComplete(const Request &req, double done_ns) override;

  private:
    std::vector<double> ready;
    std::vector<bool> outstanding;
    unsigned issued = 0;
    unsigned total;
    std::uint64_t seed_;
};

} // namespace hfi::serve

#endif // HFI_SERVE_LOAD_GEN_H
