/**
 * @file
 * The benchmark's own host-clock instrumentation: spans recorded around
 * each call into a layer, and per-thread handler-start gaps.
 *
 * Nothing here reaches into the program under test. Spans are opened by
 * the benchmark's code around `ServeEngine::run`, around the handler it
 * passes to the engine, and around the sandbox, workload and simulator
 * calls that handler (or the simulator round) makes. They are held in
 * memory, per host thread, and only read once the run is over.
 */

#ifndef HOSTBENCH_TRACE_H
#define HOSTBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench
{

/** Host monotonic time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * What a workload's host time tracks on a shared host, and so which
 * fixed loop calibrates it.
 *
 * Shared VM hosts give a vCPU a steady clock (a latency-bound multiply
 * chain times the same throughout) but not steady throughput: other
 * tenants' load swings compute-bound code by up to 1.7x, and page-fault
 * and zero-fill cost swings on its own schedule, within a run and
 * between runs. Each cell is timed between two runs of its workload's
 * loop, and the loop's reference time over the mean of the two is the
 * host speed the cell ran at.
 */
enum class Calibration : std::uint8_t
{
    Compute,   ///< random read-modify-writes over 1 MiB, with multiplies
    Lifecycle, ///< map, touch and unmap 2 MiB of fresh pages, four times
    None,      ///< not calibrated: the work runs on threads the loop
               ///< cannot follow (speed 1)
};

/** The calibration loop's host seconds right now (0 for None). */
double calibrationSeconds(Calibration kind);

/** The calibration loop's time on the reference host (speed 1). */
double calibrationRefSeconds(Calibration kind);

class SpanLog;

/** calibrationSeconds() inside a bench.calibrate span of @p log. */
double calibrate(Calibration kind, SpanLog *log);

/**
 * Host speed of each of n cells timed between calibrations
 * @p probes[c] and @p probes[c + 1] (so n + 1 probes).
 */
std::vector<double> speedsBetween(Calibration kind,
                                  const std::vector<double> &probes);

/** The layer boundaries the benchmark records a span at. */
enum class Layer : std::uint8_t
{
    Round,         ///< one fixed unit of benchmark work (the root)
    ServeRun,      ///< ServeEngine construction + run()
    Handler,       ///< the handler the engine invokes, as a whole
    SfiStage,      ///< LinearMemory::writeBytes of a request payload
    WorkloadXml,   ///< workloads::faas::xmlToJson
    WorkloadImage, ///< workloads::faas::classifyImage
    WorkloadSha,   ///< workloads::faas::checkSha256
    WorkloadHtml,  ///< workloads::faas::renderTemplate
    SimStage,      ///< kernels::Kernel::stage into a fresh SimMemory
    SimFunctional, ///< FunctionalCore::run
    SimPipeline,   ///< Pipeline construction + run()
    Calibrate,     ///< the calibration loop timed around each cell
};

const char *layerName(Layer layer);

/**
 * A fresh identity for a log object, so per-thread cached buffer
 * pointers never resolve to a destroyed log at the same address.
 */
std::uint64_t newLogGeneration();

/** One closed span. `parent` is kNoParent for a root. */
struct Span
{
    static constexpr std::uint32_t kNoParent = ~0u;

    std::uint32_t id = 0;
    std::uint32_t parent = kNoParent;
    Layer layer = Layer::Round;
    std::uint32_t thread = 0; ///< registration order of the host thread
    std::uint16_t cell = 0;   ///< workload cell (backend, scheme, ...)
    std::uint32_t request = 0; ///< handler seed, or 0 outside a request
    std::uint64_t count = 0;   ///< work done inside (accesses, insts)
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;

    std::int64_t duration() const { return endNs - beginNs; }
};

/**
 * Self time of every span in @p spans (same order): its duration minus
 * the part of it its children cover. Children are grouped by host
 * thread; on each thread that ran children the parent is charged its
 * whole duration minus the union of those children's intervals, so a
 * span whose children ran on two threads owns the thread time on both
 * that no child covers. A span without children owns its duration.
 */
std::vector<double> selfTimesNs(const std::vector<Span> &spans);

/**
 * Write @p spans with their @p self times to @p path as CSV, times in ns
 * from the earliest span's start. @return false if the file could not
 * be written.
 */
bool writeSpans(const std::vector<Span> &spans,
                const std::vector<double> &self, const std::string &path);

/**
 * In-memory span recorder. Each host thread appends to its own buffer
 * (registered under a mutex on its first span); spans() merges them
 * after every recording thread has been joined.
 */
class SpanLog
{
  public:
    SpanLog() = default;
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /**
     * Parent for a span opened on a thread that has no open span of
     * its own — how handler spans on the engine's worker threads attach
     * to the run span the main thread holds open.
     */
    void setCrossThreadParent(std::uint32_t id) { crossParent_ = id; }

    std::vector<Span> spans() const;

  private:
    friend class ScopedSpan;
    struct Buffer
    {
        std::uint32_t thread = 0;
        std::vector<Span> spans;
    };

    Buffer &buffer();
    std::uint32_t nextId();

    const std::uint64_t generation_ = newLogGeneration();
    mutable std::mutex mu_; ///< guards buffers_
    std::vector<std::unique_ptr<Buffer>> buffers_;
    std::atomic<std::uint32_t> nextId_{0};
    std::uint32_t crossParent_ = Span::kNoParent;
};

/**
 * RAII span. A null log records nothing (the untraced configuration).
 * Nesting is tracked per host thread: the innermost open span on this
 * thread is the parent.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, Layer layer, std::uint16_t cell = 0,
               std::uint32_t request = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Work done inside the span, read by the per-layer ratios. */
    void setCount(std::uint64_t count) { span_.count = count; }
    std::uint32_t id() const { return span_.id; }

  private:
    SpanLog *log_;
    Span span_;
    ScopedSpan *outer_ = nullptr;
};

/**
 * Host time per request as the gap between consecutive handler starts
 * on one host thread. The benchmark's handler calls mark() first thing;
 * each gap then covers the engine, lifecycle and handler work of the
 * previous request on that thread. Gaps never span two engine runs:
 * beginRun() starts a new epoch and endRun() collects the samples.
 */
class GapLog
{
  public:
    /** Order statistics kept per run (all gaps when fewer). */
    static constexpr std::size_t kSketch = 4096;

    /** One run's gaps, sorted and thinned to at most kSketch points. */
    struct Run
    {
        std::size_t count = 0; ///< gaps the run produced
        /** Evenly spaced order statistics of the run's gaps, in ns. */
        std::vector<double> sorted;
    };

    GapLog() = default;
    GapLog(const GapLog &) = delete;
    GapLog &operator=(const GapLog &) = delete;

    void beginRun();
    /** Called by handlers, possibly from several threads at once. */
    void mark();
    /** Collect this run's gaps (all threads joined). */
    void endRun();

    const std::vector<Run> &runs() const { return runs_; }

    /**
     * Load imbalance between host threads: per run, the slowest
     * thread's summed gaps over the mean thread's, both summed over
     * runs. 1 for a single thread; 0 before any gap.
     */
    double busySkew() const;

  private:
    struct Thread
    {
        std::uint64_t epoch = 0;
        std::int64_t last = 0;
        double busy = 0;
        std::vector<double> gaps;
    };
    Thread &thread();

    const std::uint64_t generation_ = newLogGeneration();
    std::mutex mu_; ///< guards threads_
    std::vector<std::unique_ptr<Thread>> threads_;
    std::uint64_t epoch_ = 1;
    std::vector<Run> runs_;
    /** Summed gaps per run, per thread that marked in it. */
    std::vector<std::vector<double>> busy_;
};

} // namespace hostbench

#endif // HOSTBENCH_TRACE_H
