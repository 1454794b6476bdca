#include "trace.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

namespace hostbench
{

namespace
{

std::atomic<std::uint64_t> logGeneration{1};

struct ThreadSlot
{
    std::uint64_t generation = 0;
    std::uint64_t epoch = 0;
    void *record = nullptr;
};

thread_local ThreadSlot spanSlot;
thread_local ThreadSlot gapSlot;
thread_local ScopedSpan *innermost = nullptr;

} // namespace

std::uint64_t
newLogGeneration()
{
    return logGeneration.fetch_add(1);
}

double
calibrationSeconds(Calibration kind)
{
    const std::int64_t t0 = nowNs();
    switch (kind) {
      case Calibration::Compute: {
        constexpr std::size_t kWords = (1 << 20) / sizeof(std::uint64_t);
        static std::vector<std::uint64_t> table(kWords, 1);
        std::uint64_t s = 0x5eed, acc = 0;
        for (std::size_t i = 0; i < 16 * kWords; ++i) {
            s += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ULL;
            table[(z >> 17) & (kWords - 1)] += z;
            acc += table[i & (kWords - 1)];
        }
        asm volatile("" : : "r"(acc)); // keep the loop's work
        break;
      }
      case Calibration::Lifecycle: {
        constexpr std::size_t kBytes = 2 << 20;
        for (int r = 0; r < 4; ++r) {
            void *p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                return 0;
            auto *bytes = static_cast<volatile std::uint8_t *>(p);
            for (std::size_t o = 0; o < kBytes; o += 4096)
                bytes[o] = 1;
            munmap(p, kBytes);
        }
        break;
      }
      case Calibration::None: return 0;
    }
    return static_cast<double>(nowNs() - t0) / 1e9;
}

double
calibrationRefSeconds(Calibration kind)
{
    switch (kind) {
      case Calibration::Compute: return 0.004;
      case Calibration::Lifecycle: return 0.003;
      case Calibration::None: break;
    }
    return 0;
}

double
calibrate(Calibration kind, SpanLog *log)
{
    if (kind == Calibration::None)
        return 0;
    ScopedSpan span(log, Layer::Calibrate);
    return calibrationSeconds(kind);
}

std::vector<double>
speedsBetween(Calibration kind, const std::vector<double> &probes)
{
    std::vector<double> speeds;
    for (std::size_t c = 0; c + 1 < probes.size(); ++c) {
        const double mean = (probes[c] + probes[c + 1]) / 2;
        speeds.push_back(mean > 0 ? calibrationRefSeconds(kind) / mean : 1);
    }
    return speeds;
}

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Round: return "bench.round";
      case Layer::ServeRun: return "serve.run";
      case Layer::Handler: return "bench.handler";
      case Layer::SfiStage: return "sfi.stage";
      case Layer::WorkloadXml: return "workloads.xml";
      case Layer::WorkloadImage: return "workloads.image";
      case Layer::WorkloadSha: return "workloads.sha";
      case Layer::WorkloadHtml: return "workloads.html";
      case Layer::SimStage: return "sim.stage";
      case Layer::SimFunctional: return "sim.functional";
      case Layer::SimPipeline: return "sim.pipeline";
      case Layer::Calibrate: return "bench.calibrate";
    }
    return "?";
}

std::vector<double>
selfTimesNs(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);

    // Children of each span, as (thread, begin, end), clipped to the
    // parent's interval.
    struct Piece
    {
        std::uint32_t thread;
        std::int64_t begin, end;
        bool operator<(const Piece &o) const
        {
            return thread != o.thread ? thread < o.thread : begin < o.begin;
        }
    };
    std::vector<std::vector<Piece>> children(spans.size());
    for (const Span &s : spans) {
        if (s.parent == Span::kNoParent)
            continue;
        const auto it = index.find(s.parent);
        if (it == index.end())
            continue;
        const Span &p = spans[it->second];
        const std::int64_t b = std::max(s.beginNs, p.beginNs);
        const std::int64_t e = std::min(s.endNs, p.endNs);
        if (e > b)
            children[it->second].push_back({s.thread, b, e});
    }

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &kids = children[i];
        const double dur = static_cast<double>(spans[i].duration());
        if (kids.empty()) {
            self[i] = dur;
            continue;
        }
        std::sort(kids.begin(), kids.end());
        double total = 0;
        std::size_t k = 0;
        while (k < kids.size()) {
            // One thread: parent duration minus the union of its pieces.
            const std::uint32_t thread = kids[k].thread;
            std::int64_t covered = 0, runB = kids[k].begin,
                         runE = kids[k].end;
            for (; k < kids.size() && kids[k].thread == thread; ++k) {
                if (kids[k].begin > runE) {
                    covered += runE - runB;
                    runB = kids[k].begin;
                    runE = kids[k].end;
                } else {
                    runE = std::max(runE, kids[k].end);
                }
            }
            covered += runE - runB;
            total += dur - static_cast<double>(covered);
        }
        self[i] = total;
    }
    return self;
}

bool
writeSpans(const std::vector<Span> &spans, const std::vector<double> &self,
           const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::int64_t origin = spans.empty() ? 0 : spans.front().beginNs;
    for (const Span &s : spans)
        origin = std::min(origin, s.beginNs);
    std::fprintf(f, "id,parent,layer,thread,cell,request,count,begin_ns,"
                    "end_ns,self_ns\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f, "%u,%lld,%s,%u,%u,%u,%llu,%lld,%lld,%.0f\n", s.id,
                     s.parent == Span::kNoParent
                         ? -1LL
                         : static_cast<long long>(s.parent),
                     layerName(s.layer), s.thread, s.cell, s.request,
                     static_cast<unsigned long long>(s.count),
                     static_cast<long long>(s.beginNs - origin),
                     static_cast<long long>(s.endNs - origin), self[i]);
    }
    return std::fclose(f) == 0;
}

SpanLog::Buffer &
SpanLog::buffer()
{
    const std::uint64_t gen = generation_;
    if (spanSlot.generation != gen) {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        buffers_.back()->thread =
            static_cast<std::uint32_t>(buffers_.size() - 1);
        spanSlot = {gen, 0, buffers_.back().get()};
    }
    return *static_cast<Buffer *>(spanSlot.record);
}

std::uint32_t
SpanLog::nextId()
{
    return nextId_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto &b : buffers_)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
}

ScopedSpan::ScopedSpan(SpanLog *log, Layer layer, std::uint16_t cell,
                       std::uint32_t request)
    : log_(log)
{
    if (!log_)
        return;
    span_.id = log_->nextId();
    span_.parent = innermost ? innermost->span_.id : log_->crossParent_;
    span_.layer = layer;
    span_.thread = log_->buffer().thread;
    span_.cell = cell;
    span_.request = request;
    outer_ = innermost;
    innermost = this;
    span_.beginNs = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!log_)
        return;
    span_.endNs = nowNs();
    innermost = outer_;
    log_->buffer().spans.push_back(span_);
}

GapLog::Thread &
GapLog::thread()
{
    const std::uint64_t gen = generation_;
    if (gapSlot.generation != gen || gapSlot.epoch != epoch_) {
        std::lock_guard<std::mutex> lock(mu_);
        threads_.push_back(std::make_unique<Thread>());
        threads_.back()->epoch = epoch_;
        gapSlot = {gen, epoch_, threads_.back().get()};
    }
    return *static_cast<Thread *>(gapSlot.record);
}

void
GapLog::beginRun()
{
    ++epoch_;
}

void
GapLog::mark()
{
    const std::int64_t now = nowNs();
    Thread &t = thread();
    if (t.last != 0) {
        const double gap = static_cast<double>(now - t.last);
        t.gaps.push_back(gap);
        t.busy += gap;
    }
    t.last = now;
}

void
GapLog::endRun()
{
    std::lock_guard<std::mutex> lock(mu_);
    Run run;
    std::vector<double> busy;
    for (const auto &t : threads_) {
        if (t->epoch != epoch_)
            continue;
        run.sorted.insert(run.sorted.end(), t->gaps.begin(), t->gaps.end());
        if (!t->gaps.empty())
            busy.push_back(t->busy);
    }
    busy_.push_back(std::move(busy));
    run.count = run.sorted.size();
    std::sort(run.sorted.begin(), run.sorted.end());
    if (run.count > kSketch) {
        std::vector<double> thin(kSketch);
        for (std::size_t i = 0; i < kSketch; ++i)
            thin[i] = run.sorted[(2 * i + 1) * run.count / (2 * kSketch)];
        run.sorted = std::move(thin);
    }
    runs_.push_back(std::move(run));
    // Records of finished runs are no longer reachable from any thread
    // that will mark again in a later epoch.
    std::erase_if(threads_,
                  [this](const auto &t) { return t->epoch == epoch_; });
}

double
GapLog::busySkew() const
{
    double slowest = 0, mean = 0;
    for (const auto &run : busy_) {
        if (run.empty())
            continue;
        double sum = 0;
        for (double b : run)
            sum += b;
        slowest += *std::max_element(run.begin(), run.end());
        mean += sum / static_cast<double>(run.size());
    }
    return mean > 0 ? slowest / mean : 0;
}

} // namespace hostbench
