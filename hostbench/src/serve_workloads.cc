/**
 * @file
 * The three serving workloads: faas_mix, serve_cold, serve_warm_faults.
 *
 * Each is a list of engine cells (one EngineConfig each) run back to
 * back on one host process. A round runs every cell once with a fixed
 * request count, so a round is a fixed amount of work whatever the
 * seed; the seed only changes which inputs and arrival times it draws.
 */

#include <array>
#include <cstdio>
#include <unordered_map>

#include "serve/load_gen.h"
#include "swivel/swivel.h"
#include "workload.h"
#include "workloads/crypto.h"
#include "workloads/faas_workloads.h"
#include "workloads/image.h"
#include "workloads/support.h"

namespace hostbench
{

namespace
{

using hfi::serve::EngineConfig;
using hfi::serve::Handler;
using hfi::serve::Scheme;
using hfi::serve::ServeEngine;
using hfi::serve::ServeResult;
using hfi::sfi::BackendKind;

struct Cell
{
    std::string name; ///< pinned-fingerprint key, e.g. "HfiNative/Hfi"
    EngineConfig config;
};

const char *
schemeLabel(Scheme s)
{
    switch (s) {
      case Scheme::Unsafe: return "Unsafe";
      case Scheme::HfiNative: return "HfiNative";
      case Scheme::HfiSwitchOnExit: return "HfiSwitchOnExit";
      case Scheme::Swivel: return "Swivel";
    }
    return "?";
}

const char *
backendLabel(BackendKind b)
{
    switch (b) {
      case BackendKind::GuardPages: return "guard_pages";
      case BackendKind::BoundsCheck: return "bounds_check";
      case BackendKind::Mask: return "mask";
      case BackendKind::Hfi: return "hfi";
    }
    return "?";
}

constexpr Scheme kAllSchemes[] = {Scheme::Unsafe, Scheme::HfiNative,
                                  Scheme::HfiSwitchOnExit, Scheme::Swivel};

/** Engine seed for every cell of a workload, drawn from the bench seed. */
std::uint64_t
engineSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + salt;
    return hfi::serve::splitmix64(state);
}

/** Cells served by the engine; the shared round/check/metrics logic. */
class ServeWorkload : public Workload
{
  public:
    ServeWorkload(std::string name, std::uint64_t seed)
        : name_(std::move(name)), seed_(seed)
    {
    }

    void
    warmUp() override
    {
        GapLog gaps;
        gaps_ = &gaps;
        log_ = nullptr;
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            EngineConfig cfg = cells_[c].config;
            cfg.requests = std::max(1u, cfg.requests / 4);
            beforeCell(c);
            ServeEngine(cfg, handlerFor(c)).run();
        }
    }

    void
    round(SpanLog *log, GapLog &gaps, Tally &tally,
          std::vector<CellTime> &cells) override
    {
        cells.assign(cells_.size(), {});
        std::vector<double> probes;
        log_ = log;
        gaps_ = &gaps;
        const bool first = refs_.empty();
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            const EngineConfig &cfg = cells_[c].config;
            beforeCell(c);
            probes.push_back(calibrate(calibration(), log));
            const std::int64_t t0 = nowNs();
            gaps.beginRun();
            ServeResult r;
            {
                ScopedSpan run(log, Layer::ServeRun,
                               static_cast<std::uint16_t>(c));
                if (log)
                    log->setCrossThreadParent(run.id());
                r = ServeEngine(cfg, handlerFor(c)).run();
                if (log)
                    log->setCrossThreadParent(Span::kNoParent);
            }
            // Closes the last request's gap on the sequential driver, so
            // every request's cost is one sample (the threaded driver's
            // worker threads have ended; this mark starts no gap there).
            gaps.mark();
            gaps.endRun();

            tally.attempted += cfg.requests;
            tally.dropped += r.shed + r.rejected;
            tally.retryExhausted += r.robustness.failed;
            const std::string where = name_ + " " + cells_[c].name + ": ";
            if (auto err = checkAccounting(r, cfg.requests); !err.empty())
                tally.fail(where + err);
            if (r.hfiStateMismatches != 0)
                tally.fail(where + "HFI state lost across a preemption");
            checkCell(c, r, tally);
            if (first)
                refs_.push_back(r);
            else if (fingerprint(r) != fingerprint(refs_[c]))
                tally.fail(where + "modeled result differs between rounds");
            if (log)
                accumulate(r, cfg.requests);
            cells[c].seconds = static_cast<double>(nowNs() - t0) / 1e9;
        }
        probes.push_back(calibrate(calibration(), log));
        const auto speeds = speedsBetween(calibration(), probes);
        for (std::size_t c = 0; c < cells.size(); ++c)
            cells[c].speed = speeds[c];
    }

    void
    finish(Tally &tally) override
    {
        if (seed_ != kDefaultSeed)
            return;
        for (std::size_t c = 0; c < cells_.size() && c < refs_.size(); ++c)
            if (auto err = checkPinned(name_, cells_[c].name,
                                       fingerprint(refs_[c]));
                !err.empty())
                tally.fail(err);
    }

    void
    layerMetrics(const std::vector<Span> &spans,
                 const std::vector<double> &self, const GapLog &gaps,
                 unsigned traced_rounds, Metrics &out) override
    {
        double serveSelf = 0;
        for (std::size_t i = 0; i < spans.size(); ++i)
            if (spans[i].layer == Layer::ServeRun)
                serveSelf += self[i];
        const auto req = static_cast<double>(traced_.requests);
        const auto rounds = static_cast<double>(traced_rounds);
        if (req > 0) {
            out["serve.self_us_per_req"] = serveSelf / req / 1e3;
            out["serve.instances_per_req"] = traced_.instances / req;
            out["serve.context_switches_per_req"] = traced_.switches / req;
            out["serve.preemptions_per_req"] = traced_.preemptions / req;
        }
        if (traced_.instances > 0)
            out["serve.self_us_per_instance"] =
                serveSelf / traced_.instances / 1e3;
        if (rounds > 0) {
            out["serve.reclaim_batches"] = traced_.reclaimBatches / rounds;
            out["serve.stolen"] = traced_.stolen / rounds;
            out["serve.retries"] = traced_.retries / rounds;
            out["serve.timeouts"] = traced_.timeouts / rounds;
            out["serve.quarantines"] = traced_.quarantines / rounds;
            out["serve.respawns"] = traced_.respawns / rounds;
            out["serve.pool_waits"] = traced_.poolWaits / rounds;
            out["serve.failed"] = traced_.failed / rounds;
            out["serve.shed"] = traced_.shed / rounds;
        }
        out["serve.max_queue_depth"] = traced_.maxQueueDepth;
        out["serve.thread_busy_skew"] = gaps.busySkew();
    }

  protected:
    /** The handler the engine runs for cell @p c. */
    virtual Handler handlerFor(std::size_t c) = 0;
    /** Reset per-cell output slots before cell @p c runs. */
    virtual void beforeCell(std::size_t) {}
    /** Workload-specific output checks on cell @p c's result. */
    virtual void checkCell(std::size_t, const ServeResult &, Tally &) {}

    std::string name_;
    std::uint64_t seed_;
    std::vector<Cell> cells_;
    /** The first round's result per cell; later rounds must match. */
    std::vector<ServeResult> refs_;
    /** Where the running round's spans and handler starts go. Set
        before a run starts the engine's threads, read-only during it. */
    SpanLog *log_ = nullptr;
    GapLog *gaps_ = nullptr;

  private:
    struct Totals
    {
        double requests = 0, instances = 0, switches = 0, preemptions = 0,
               reclaimBatches = 0, stolen = 0, retries = 0, timeouts = 0,
               quarantines = 0, respawns = 0, poolWaits = 0, failed = 0,
               shed = 0, maxQueueDepth = 0;
    };

    void
    accumulate(const ServeResult &r, std::uint64_t requests)
    {
        const auto &rb = r.robustness;
        traced_.requests += static_cast<double>(requests);
        traced_.instances += static_cast<double>(r.instancesCreated);
        traced_.switches += static_cast<double>(r.contextSwitches);
        traced_.preemptions += static_cast<double>(r.preemptions);
        traced_.reclaimBatches += static_cast<double>(r.reclaimBatches);
        traced_.stolen += static_cast<double>(r.stolen);
        traced_.retries += static_cast<double>(rb.retries);
        traced_.timeouts += static_cast<double>(rb.timeouts);
        traced_.quarantines += static_cast<double>(rb.quarantines);
        traced_.respawns += static_cast<double>(rb.respawns);
        traced_.poolWaits += static_cast<double>(rb.poolWaits);
        traced_.failed += static_cast<double>(rb.failed);
        traced_.shed += static_cast<double>(r.shed);
        traced_.maxQueueDepth = std::max(
            traced_.maxQueueDepth, static_cast<double>(r.maxQueueDepth));
    }

    Totals traced_;
};

// ---------------------------------------------------------------- faas_mix

/** Table 1's four handlers and their 300:200:300:400 request shares. */
enum class Kind : std::uint8_t
{
    Xml,
    Image,
    Sha,
    Html,
};
constexpr std::array<Kind, 12> kKindBlock = {
    Kind::Xml,  Kind::Xml,  Kind::Xml,  Kind::Image, Kind::Image, Kind::Sha,
    Kind::Sha,  Kind::Sha,  Kind::Html, Kind::Html,  Kind::Html,  Kind::Html};
constexpr const char *kKindNames[] = {"xml", "image", "sha", "html"};

/** Requests per faas_mix cell per round: four blocks of twelve. */
constexpr unsigned kMixRequests = 48;
constexpr std::uint64_t kInOff = 64;
constexpr std::uint64_t kDigestOff = 1 << 20;
constexpr std::uint32_t kImageSide = 96;
constexpr std::uint64_t kXmlRecords = 220;
constexpr std::uint64_t kHtmlRows = 24;
constexpr std::size_t kShaBytes = 96 * 1024;

Layer
layerOf(Kind k)
{
    switch (k) {
      case Kind::Xml: return Layer::WorkloadXml;
      case Kind::Image: return Layer::WorkloadImage;
      case Kind::Sha: return Layer::WorkloadSha;
      case Kind::Html: return Layer::WorkloadHtml;
    }
    return Layer::WorkloadXml;
}

class FaasMix final : public ServeWorkload
{
  public:
    explicit FaasMix(std::uint64_t seed) : ServeWorkload("faas_mix", seed)
    {
        const std::uint64_t es = engineSeed(seed, 1);
        const std::pair<Scheme, BackendKind> cells[] = {
            {Scheme::Unsafe, BackendKind::GuardPages},
            {Scheme::HfiNative, BackendKind::Hfi},
            {Scheme::HfiSwitchOnExit, BackendKind::Hfi},
            {Scheme::Swivel, BackendKind::GuardPages},
            {Scheme::Unsafe, BackendKind::BoundsCheck},
            {Scheme::Unsafe, BackendKind::Mask},
        };
        for (const auto &[scheme, backend] : cells) {
            EngineConfig ec;
            ec.workers = 1;
            ec.mode = hfi::serve::LoadMode::OpenLoop;
            ec.requests = kMixRequests;
            ec.meanInterarrivalNs = 4'000'000.0;
            ec.seed = es;
            ec.worker.scheme = scheme;
            ec.worker.backend = backend;
            // Table 1's instance size, served from a warm pool.
            ec.worker.sandboxOptions = {64, 4096};
            ec.worker.poolSize = 2;
            if (scheme == Scheme::Swivel)
                ec.worker.swivelEffect =
                    hfi::swivel::apply(hfi::swivel::xmlToJsonProfile());
            cells_.push_back({std::string(schemeLabel(scheme)) + "/" +
                                  backendLabel(backend),
                              ec});
            backends_.push_back(backend);
        }
        makeJobs(seed, es);
    }

  protected:
    Handler
    handlerFor(std::size_t c) override
    {
        const auto cell = static_cast<std::uint16_t>(c);
        return [this, cell](hfi::sfi::Sandbox &s, std::uint32_t seed) {
            gaps_->mark();
            ScopedSpan h(log_, Layer::Handler, cell, seed);
            const auto it = idOf_.find(seed);
            if (it == idOf_.end())
                return; // leaves the result slot unset: a check failure
            const Job &job = jobs_[it->second];
            {
                ScopedSpan st(log_, Layer::SfiStage, cell, seed);
                s.memory().writeBytes(kInOff, job.payload.data(),
                                      job.payload.size());
                if (job.kind == Kind::Sha)
                    s.memory().writeBytes(kDigestOff, job.digest.data(),
                                          job.digest.size());
            }
            const auto before = s.stats();
            Result res;
            {
                ScopedSpan k(log_, layerOf(job.kind), cell, seed);
                res.value = callKernel(s, job);
                res.loads = s.stats().loads - before.loads;
                res.stores = s.stats().stores - before.stores;
                k.setCount(res.loads + res.stores);
            }
            res.set = true;
            results_[it->second] = res;
        };
    }

    void
    beforeCell(std::size_t) override
    {
        results_.assign(jobs_.size(), Result{});
    }

    void
    checkCell(std::size_t c, const ServeResult &r, Tally &tally) override
    {
        const std::string where = "faas_mix " + cells_[c].name + ": ";
        if (r.served != jobs_.size())
            tally.fail(where + "not every request was served");
        if (reference_.empty())
            reference_ = results_;
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            const Result &got = results_[i];
            const Result &want = reference_[i];
            if (!got.set) {
                tally.fail(where + "request " + std::to_string(i) +
                           " produced no result");
                continue;
            }
            if (got.value != want.value)
                tally.fail(where + "request " + std::to_string(i) +
                           " value differs from the first backend");
            if (got.loads != want.loads || got.stores != want.stores)
                tally.fail(where + "request " + std::to_string(i) +
                           " access counts differ from the first backend");
            if (jobs_[i].kind == Kind::Sha && got.value != jobs_[i].expect)
                tally.fail(where + "request " + std::to_string(i) +
                           " SHA-256 check reported no match");
        }
    }

  public:
    /** 288 requests a round: p95 is the highest with ten beyond it. */
    double tailPct() const override { return 95; }
    /** The access path and kernels: compute-bound. */
    Calibration calibration() const override { return Calibration::Compute; }

    void
    layerMetrics(const std::vector<Span> &spans,
                 const std::vector<double> &self, const GapLog &gaps,
                 unsigned traced_rounds, Metrics &out) override
    {
        ServeWorkload::layerMetrics(spans, self, gaps, traced_rounds, out);
        std::map<std::string, std::pair<double, double>> perBackend;
        std::array<double, 4> kindNs{}, kindAccesses{}, kindCount{};
        double stageNs = 0, stageCount = 0;
        for (const Span &s : spans) {
            if (s.layer == Layer::SfiStage) {
                stageNs += static_cast<double>(s.duration());
                ++stageCount;
            }
            int k = -1;
            switch (s.layer) {
              case Layer::WorkloadXml: k = 0; break;
              case Layer::WorkloadImage: k = 1; break;
              case Layer::WorkloadSha: k = 2; break;
              case Layer::WorkloadHtml: k = 3; break;
              default: break;
            }
            if (k < 0)
                continue;
            const auto ns = static_cast<double>(s.duration());
            kindNs[k] += ns;
            kindAccesses[k] += static_cast<double>(s.count);
            ++kindCount[k];
            // SHA's time is dominated by hashing, not the access path.
            if (k != 2) {
                auto &b = perBackend[backendLabel(backends_[s.cell])];
                b.first += ns;
                b.second += static_cast<double>(s.count);
            }
        }
        for (const auto &[backend, v] : perBackend)
            if (v.second > 0)
                out["sfi.ns_per_access." + backend] = v.first / v.second;
        for (int k = 0; k < 4; ++k) {
            if (kindCount[k] == 0)
                continue;
            out[std::string("sfi.accesses_per_req.") + kKindNames[k]] =
                kindAccesses[k] / kindCount[k];
            out[std::string("workloads.") + kKindNames[k] + ".us_per_req"] =
                kindNs[k] / kindCount[k] / 1e3;
        }
        if (stageCount > 0)
            out["sfi.stage_us_per_req"] = stageNs / stageCount / 1e3;
    }

  private:
    struct Job
    {
        Kind kind = Kind::Xml;
        std::vector<std::uint8_t> payload;
        std::array<std::uint8_t, 32> digest{};
        std::uint32_t param = 0;  ///< image weights / template data seed
        std::uint64_t expect = 0; ///< checkSha256's value on a match
    };
    struct Result
    {
        bool set = false;
        std::uint64_t value = 0;
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
    };

    static std::uint64_t
    callKernel(hfi::sfi::Sandbox &s, const Job &job)
    {
        namespace wf = hfi::workloads::faas;
        switch (job.kind) {
          case Kind::Xml: return wf::xmlToJson(s, kInOff, job.payload.size());
          case Kind::Image:
            return wf::classifyImage(s, kInOff, kImageSide, job.param);
          case Kind::Sha:
            return wf::checkSha256(s, kInOff, job.payload.size(),
                                   kDigestOff);
          case Kind::Html:
            return wf::renderTemplate(s, kInOff, job.payload.size(),
                                      kHtmlRows, job.param);
        }
        return 0;
    }

    /** Inputs for every request id, drawn from the bench seed. */
    void
    makeJobs(std::uint64_t seed, std::uint64_t engine_seed)
    {
        std::uint64_t rng = seed ^ 0xfaa5f00dULL;
        auto next32 = [&rng] {
            return static_cast<std::uint32_t>(hfi::serve::splitmix64(rng));
        };
        jobs_.resize(kMixRequests);
        for (unsigned base = 0; base < kMixRequests; base += 12) {
            // Exact Table 1 shares in every block of twelve, in a seeded
            // order (Fisher-Yates).
            auto block = kKindBlock;
            for (std::size_t i = block.size() - 1; i > 0; --i)
                std::swap(block[i], block[next32() % (i + 1)]);
            for (unsigned j = 0; j < 12; ++j)
                jobs_[base + j].kind = block[j];
        }
        for (unsigned id = 0; id < kMixRequests; ++id) {
            Job &job = jobs_[id];
            const std::uint32_t s = next32();
            job.param = s;
            switch (job.kind) {
              case Kind::Xml: {
                const std::string xml =
                    hfi::workloads::faas::makeXmlDocument(kXmlRecords, s);
                job.payload.assign(xml.begin(), xml.end());
                break;
              }
              case Kind::Image:
                job.payload = hfi::workloads::image::makeTestImage(
                    kImageSide, kImageSide, s);
                break;
              case Kind::Sha: {
                job.payload.resize(kShaBytes);
                std::uint64_t bytes = s;
                for (auto &b : job.payload)
                    b = static_cast<std::uint8_t>(
                        hfi::serve::splitmix64(bytes));
                job.digest = hfi::workloads::crypto::sha256(
                    job.payload.data(), job.payload.size());
                // checkSha256 returns FNV(FNV(digest bytes), match bit).
                hfi::workloads::Checksum digest;
                for (std::uint8_t b : job.digest)
                    digest.mix(b);
                hfi::workloads::Checksum value;
                value.mix(digest.value());
                value.mix(1);
                job.expect = value.value();
                break;
              }
              case Kind::Html: {
                const std::string tpl =
                    hfi::workloads::faas::makeHtmlTemplate(s);
                job.payload.assign(tpl.begin(), tpl.end());
                break;
              }
            }
            // The engine derives request id's handler seed this way;
            // resolve it back to the id in the handler.
            idOf_.emplace(hfi::serve::mixSeed(engine_seed, id), id);
        }
    }

    std::vector<BackendKind> backends_;
    std::vector<Job> jobs_;
    std::unordered_map<std::uint32_t, std::uint32_t> idOf_;
    std::vector<Result> results_;
    /** The first cell's first-round results every cell must reproduce. */
    std::vector<Result> reference_;

  public:
    /** False if two request ids drew the same handler seed. */
    bool seedsDistinct() const { return idOf_.size() == jobs_.size(); }
};

// ------------------------------------------------ serve_cold / warm_faults

/** The serve_scaling / serve_faults handler: 64 stores + 250k ops. */
constexpr std::uint64_t kHandlerOps = 250'000;

class ScalingHandlerWorkload : public ServeWorkload
{
  public:
    using ServeWorkload::ServeWorkload;

  protected:
    Handler
    handlerFor(std::size_t c) override
    {
        const auto cell = static_cast<std::uint16_t>(c);
        return [this, cell](hfi::sfi::Sandbox &s, std::uint32_t seed) {
            gaps_->mark();
            ScopedSpan h(log_, Layer::Handler, cell, seed);
            for (int i = 0; i < 64; ++i)
                s.store<std::uint32_t>(64 + (i % 64) * 4, seed + i);
            s.chargeOps(kHandlerOps);
        };
    }
};

/** Requests per serve_cold cell per round, by instance size. */
constexpr unsigned kColdSmallRequests = 6'000;
constexpr unsigned kColdLargeRequests = 3'000;

class ServeCold final : public ScalingHandlerWorkload
{
  public:
    /** Instance create/zero-fill/teardown dominates. */
    Calibration
    calibration() const override
    {
        return Calibration::Lifecycle;
    }

    explicit ServeCold(std::uint64_t seed)
        : ScalingHandlerWorkload("serve_cold", seed)
    {
        const std::uint64_t es = engineSeed(seed, 2);
        const struct
        {
            const char *label;
            hfi::sfi::SandboxOptions options;
            unsigned requests;
        } sizes[] = {{"64KiB", {1, 64}, kColdSmallRequests},
                     {"256KiB", {4, 4096}, kColdLargeRequests}};
        for (const auto &size : sizes) {
            for (Scheme scheme : kAllSchemes) {
                EngineConfig ec;
                ec.workers = 4;
                ec.mode = hfi::serve::LoadMode::OpenLoop;
                ec.requests = size.requests;
                // ~80 us handlers on 4 cores: about 0.5 utilization
                // (Swivel's inflated service about 0.7), so the queues
                // stay short and the run measures lifecycle, not backlog.
                ec.meanInterarrivalNs = 40'000.0;
                ec.seed = es;
                ec.workStealing = true;
                ec.worker.scheme = scheme;
                ec.worker.quantumNs = 50'000.0;
                ec.worker.teardownBatch = 32;
                ec.worker.sandboxOptions = size.options;
                ec.worker.poolSize = 0; // a fresh instance per request
                if (scheme == Scheme::Swivel)
                    ec.worker.swivelEffect = hfi::swivel::apply(
                        hfi::swivel::xmlToJsonProfile());
                cells_.push_back(
                    {std::string(schemeLabel(scheme)) + "/" + size.label,
                     ec});
            }
        }
    }
};

/** Requests per serve_warm_faults cell per round. */
constexpr unsigned kWarmRequests = 200'000;

class ServeWarmFaults final : public ScalingHandlerWorkload
{
  public:
    /** Handlers run on the engine's two threads, not this one. */
    Calibration calibration() const override { return Calibration::None; }

    explicit ServeWarmFaults(std::uint64_t seed)
        : ScalingHandlerWorkload("serve_warm_faults", seed)
    {
        const std::uint64_t es = engineSeed(seed, 3);
        for (Scheme scheme : kAllSchemes) {
            // serve_faults' robustness cell at 5% injection, on two
            // independent shards so the threaded driver runs.
            EngineConfig ec;
            ec.workers = 2;
            ec.mode = hfi::serve::LoadMode::OpenLoop;
            ec.requests = kWarmRequests;
            ec.meanInterarrivalNs = 80'000.0;
            ec.seed = es;
            ec.queueCapacity = 128;
            ec.workStealing = false;
            ec.realThreads = true;
            ec.worker.scheme = scheme;
            ec.worker.quantumNs = 50'000.0;
            ec.worker.teardownBatch = 32;
            if (scheme == Scheme::Swivel)
                ec.worker.swivelEffect =
                    hfi::swivel::apply(hfi::swivel::xmlToJsonProfile());
            ec.worker.poolSize = 4;
            ec.worker.respawnDelayNs = 200'000.0;
            ec.worker.requestTimeoutNs = 300'000.0;
            ec.worker.maxRetries = 2;
            ec.worker.retryBackoffNs = 25'000.0;
            ec.worker.faults.rate = 0.05;
            ec.worker.faults.stallNs = 2'000'000.0;
            cells_.push_back({schemeLabel(scheme), ec});
        }
    }

    void
    finish(Tally &tally) override
    {
        ServeWorkload::finish(tally);
        // The threaded result must equal a sequential rerun.
        GapLog gaps;
        gaps_ = &gaps;
        log_ = nullptr;
        for (std::size_t c = 0; c < cells_.size() && c < refs_.size(); ++c) {
            EngineConfig seq = cells_[c].config;
            seq.realThreads = false;
            const ServeResult r = ServeEngine(seq, handlerFor(c)).run();
            if (!sameServeResult(r, refs_[c]))
                tally.fail("serve_warm_faults " + cells_[c].name +
                           ": threaded run differs from a sequential rerun");
        }
    }

  protected:
    void
    checkCell(std::size_t c, const ServeResult &r, Tally &tally) override
    {
        if (r.usedThreads != cells_[c].config.workers)
            tally.fail("serve_warm_faults " + cells_[c].name +
                       ": the threaded driver did not run");
    }
};

} // namespace

std::unique_ptr<Workload>
makeFaasMix(std::uint64_t seed)
{
    auto w = std::make_unique<FaasMix>(seed);
    if (!w->seedsDistinct()) {
        std::fprintf(stderr, "faas_mix: two requests drew one seed\n");
        return nullptr;
    }
    return w;
}

std::unique_ptr<Workload>
makeServeCold(std::uint64_t seed)
{
    return std::make_unique<ServeCold>(seed);
}

std::unique_ptr<Workload>
makeServeWarmFaults(std::uint64_t seed)
{
    return std::make_unique<ServeWarmFaults>(seed);
}

} // namespace hostbench
