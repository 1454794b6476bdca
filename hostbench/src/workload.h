/**
 * @file
 * The benchmark's workloads: what one round of work is, how its outputs
 * are checked, and how its per-layer numbers are read off the spans of
 * traced rounds.
 */

#ifndef HOSTBENCH_WORKLOAD_H
#define HOSTBENCH_WORKLOAD_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "trace.h"

namespace hostbench
{

/** What the rounds attempted and how much of it went wrong. */
struct Tally
{
    /** Requests (simulator runs for fig2_sim) attempted. */
    std::uint64_t attempted = 0;
    /** Dropped without a modeled reason: shed at admission or rejected
        at dispatch. */
    std::uint64_t dropped = 0;
    /** Requests the engine failed after exhausting their retry budget
        under injected faults — a modeled outcome, checked not avoided. */
    std::uint64_t retryExhausted = 0;
    /** Simulated instructions executed (fig2_sim). */
    std::uint64_t simInsts = 0;
    /** Outputs that failed a check. */
    std::uint64_t checkFailures = 0;
    /** The first few check failures, for the report. */
    std::vector<std::string> errors;

    void fail(const std::string &what);
};

/** One cell's host time in one round, with the host speed at the time. */
struct CellTime
{
    double seconds = 0;
    double speed = 1; ///< host speed from the calibrations around it
};

/** Per-layer metric values by name. */
using Metrics = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Run every cell once with a fraction of a round's requests, so the
     * first timed round does not pay first-run costs (page faults,
     * allocator growth, cold code).
     */
    virtual void warmUp() = 0;

    /**
     * One fixed unit of work: every cell once. @p log is null in
     * untraced rounds; handler starts always go to @p gaps. @p cells
     * receives each cell's host time, checks included.
     */
    virtual void round(SpanLog *log, GapLog &gaps, Tally &tally,
                       std::vector<CellTime> &cells) = 0;

    /** Checks that need a rerun, plus the pinned fingerprints. */
    virtual void finish(Tally &tally) = 0;

    /**
     * Per-layer metrics from the spans of @p traced_rounds traced
     * rounds; @p self holds each span's self time and @p gaps the
     * handler starts of those rounds.
     */
    virtual void layerMetrics(const std::vector<Span> &spans,
                              const std::vector<double> &self,
                              const GapLog &gaps, unsigned traced_rounds,
                              Metrics &out) = 0;

    /**
     * The tail percentile of host time per request this workload
     * reports: p99, or the highest percentile with at least ten of a
     * round's requests beyond it when p99 has fewer.
     */
    virtual double tailPct() const { return 99; }

    /** The loop that calibrates this workload's cells (see trace.h). */
    virtual Calibration calibration() const = 0;
};

/** Workload names, in the order the benchmark lists them. */
const std::vector<std::string> &workloadNames();

/** Build @p name's inputs from @p seed; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** Every per-layer metric; each traced run reports all of them. */
const std::vector<MetricSpec> &layerMetricSpecs();

/** The seed whose modeled results are pinned. */
constexpr std::uint64_t kDefaultSeed = 1;

/**
 * The modeled fingerprint of one serving cell: served, virtual duration,
 * virtual p99, instances created and retries, printed exactly.
 */
std::string fingerprint(const hfi::serve::ServeResult &r);

/** The fingerprint pinned for (@p workload, @p cell), or null. */
const char *pinnedValue(const std::string &workload, const std::string &cell);

/**
 * Compare @p actual against the value pinned for (@p workload, @p cell)
 * at kDefaultSeed. @return an error message, or empty on a match.
 */
std::string checkPinned(const std::string &workload,
                        const std::string &cell, const std::string &actual);

/**
 * serve accounting invariants: served + shed + rejected + failed equals
 * the requests issued, and the per-core breakdown sums to the totals.
 * @return an error message, or empty when they hold.
 */
std::string checkAccounting(const hfi::serve::ServeResult &r,
                            std::uint64_t requests);

/** True when two runs agree statistic for statistic and latency for
    latency (latencies compared as multisets). */
bool sameServeResult(const hfi::serve::ServeResult &a,
                     const hfi::serve::ServeResult &b);

std::unique_ptr<Workload> makeFaasMix(std::uint64_t seed);
std::unique_ptr<Workload> makeServeCold(std::uint64_t seed);
std::unique_ptr<Workload> makeServeWarmFaults(std::uint64_t seed);
std::unique_ptr<Workload> makeFig2Sim(std::uint64_t seed);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOAD_H
