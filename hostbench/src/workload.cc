#include "workload.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "sim/kernels.h"

namespace hostbench
{

void
Tally::fail(const std::string &what)
{
    ++checkFailures;
    if (errors.size() < 40)
        errors.push_back(what);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "faas_mix", "serve_cold", "serve_warm_faults", "fig2_sim"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "faas_mix")
        return makeFaasMix(seed);
    if (name == "serve_cold")
        return makeServeCold(seed);
    if (name == "serve_warm_faults")
        return makeServeWarmFaults(seed);
    if (name == "fig2_sim")
        return makeFig2Sim(seed);
    return nullptr;
}

const std::vector<MetricSpec> &
layerMetricSpecs()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> m;
        for (const char *b : {"guard_pages", "hfi", "bounds_check", "mask"})
            m.push_back({std::string("sfi.ns_per_access.") + b, "ns"});
        for (const char *k : {"xml", "image", "sha", "html"})
            m.push_back({std::string("sfi.accesses_per_req.") + k, "count"});
        m.push_back({"sfi.stage_us_per_req", "us"});
        for (const char *k : {"xml", "image", "sha", "html"})
            m.push_back({std::string("workloads.") + k + ".us_per_req", "us"});
        m.push_back({"serve.self_us_per_req", "us"});
        m.push_back({"serve.self_us_per_instance", "us"});
        for (const char *s : {"instances_per_req", "context_switches_per_req",
                              "preemptions_per_req", "reclaim_batches",
                              "stolen", "max_queue_depth", "retries",
                              "timeouts", "quarantines", "respawns",
                              "pool_waits", "failed", "shed"})
            m.push_back({std::string("serve.") + s, "count"});
        m.push_back({"serve.thread_busy_skew", "ratio"});
        m.push_back({"sim.build_ms", "ms"});
        m.push_back({"sim.stage_ms", "ms"});
        m.push_back({"sim.functional.ns_per_inst", "ns"});
        m.push_back({"sim.pipeline.ns_per_inst", "ns"});
        m.push_back({"sim.pipeline.ns_per_cycle", "ns"});
        m.push_back({"sim.pipeline.skipped_cycle_frac", "fraction"});
        for (const auto &k : hfi::sim::kernels::suite())
            m.push_back({"sim.pipeline.ns_per_inst." + k.name, "ns"});
        m.push_back({"bench.trace_overhead_frac", "fraction"});
        m.push_back({"bench.unattributed_frac", "fraction"});
        m.push_back({"bench.fail_frac", "fraction"});
        m.push_back({"bench.host_speed", "ratio"});
        return m;
    }();
    return specs;
}

std::string
fingerprint(const hfi::serve::ServeResult &r)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "served=%zu dur=%.17g p99=%.17g inst=%" PRIu64
                  " retries=%" PRIu64,
                  r.served, r.durationNs, r.latency.p99, r.instancesCreated,
                  r.robustness.retries);
    return buf;
}

std::string
checkAccounting(const hfi::serve::ServeResult &r, std::uint64_t requests)
{
    const auto &rb = r.robustness;
    if (r.served + r.shed + r.rejected + rb.failed != requests)
        return "served + shed + rejected + failed != requests issued";
    hfi::serve::RobustnessStats sum;
    for (const auto &c : r.perCore)
        sum.merge(c);
    if (sum.served != r.served || sum.shed != r.shed ||
        sum.failed != rb.failed || sum.retries != rb.retries ||
        sum.timeouts != rb.timeouts || sum.quarantines != rb.quarantines ||
        sum.respawns != rb.respawns || sum.poolWaits != rb.poolWaits ||
        sum.exits != rb.exits || sum.faultsInjected != rb.faultsInjected ||
        sum.exitsByReason != rb.exitsByReason)
        return "per-core breakdown does not sum to the totals";
    return {};
}

bool
sameServeResult(const hfi::serve::ServeResult &a,
                const hfi::serve::ServeResult &b)
{
    if (a.served != b.served || a.shed != b.shed ||
        a.rejected != b.rejected || a.stolen != b.stolen ||
        a.maxQueueDepth != b.maxQueueDepth || a.durationNs != b.durationNs ||
        a.contextSwitches != b.contextSwitches ||
        a.preemptions != b.preemptions ||
        a.instancesCreated != b.instancesCreated ||
        a.reclaimBatches != b.reclaimBatches ||
        a.hfiStateMismatches != b.hfiStateMismatches)
        return false;
    const auto &ra = a.robustness, &rb = b.robustness;
    if (ra.exitsByReason != rb.exitsByReason ||
        ra.faultsInjected != rb.faultsInjected || ra.exits != rb.exits ||
        ra.retries != rb.retries || ra.timeouts != rb.timeouts ||
        ra.quarantines != rb.quarantines || ra.respawns != rb.respawns ||
        ra.failed != rb.failed || ra.poolWaits != rb.poolWaits ||
        ra.served != rb.served || ra.shed != rb.shed)
        return false;
    // The threaded driver merges latencies per core, the sequential one
    // in service order, so compare them as multisets.
    std::vector<double> la = a.latencies.values();
    std::vector<double> lb = b.latencies.values();
    std::sort(la.begin(), la.end());
    std::sort(lb.begin(), lb.end());
    return la == lb;
}

} // namespace hostbench
