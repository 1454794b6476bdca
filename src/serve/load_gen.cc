#include "serve/load_gen.h"

#include <cmath>

namespace hfi::serve
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint32_t
mixSeed(std::uint64_t seed, std::uint64_t id)
{
    std::uint64_t state = seed ^ (id * 0x2545f4914f6cdd1dULL);
    return static_cast<std::uint32_t>(splitmix64(state));
}

std::vector<Request>
poissonArrivals(unsigned requests, double mean_interarrival_ns,
                std::uint64_t seed, double start_ns)
{
    std::vector<Request> arrivals;
    arrivals.reserve(requests);
    std::uint64_t state = seed ^ 0x7e57ab1e5eedULL;
    double t = start_ns;
    for (unsigned i = 0; i < requests; ++i) {
        // Inverse-CDF exponential sample; u is uniform in [0, 1), so
        // 1-u is in (0, 1] and the log is finite.
        const double u =
            static_cast<double>(splitmix64(state) >> 11) * 0x1p-53;
        t += -mean_interarrival_ns * std::log(1.0 - u);
        Request req;
        req.id = i;
        req.arrivalNs = t;
        req.seed = mixSeed(seed, i);
        arrivals.push_back(req);
    }
    return arrivals;
}

ClosedLoopSource::ClosedLoopSource(unsigned clients, unsigned requests,
                                   double start_ns, std::uint64_t seed)
    : ready(clients, start_ns), outstanding(clients, false), total(requests),
      seed_(seed)
{
}

std::optional<Request>
ClosedLoopSource::next()
{
    if (issued >= total || ready.empty())
        return std::nullopt;
    int who = -1;
    for (unsigned cl = 0; cl < ready.size(); ++cl) {
        if (outstanding[cl])
            continue;
        if (who < 0 || ready[cl] < ready[who])
            who = static_cast<int>(cl);
    }
    if (who < 0)
        return std::nullopt; // every client is waiting on a response
    Request req;
    req.id = issued;
    req.arrivalNs = ready[who];
    req.seed = mixSeed(seed_, issued);
    req.client = who;
    outstanding[who] = true;
    ++issued;
    return req;
}

void
ClosedLoopSource::onComplete(const Request &req, double done_ns)
{
    if (req.client < 0 ||
        req.client >= static_cast<int>(ready.size()))
        return;
    ready[req.client] = done_ns;
    outstanding[req.client] = false;
}

} // namespace hfi::serve
