/**
 * @file
 * Summary statistics the benchmark reports.
 */

#ifndef HOSTBENCH_STATS_H
#define HOSTBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "faas/latency.h"
#include "trace.h"

namespace hostbench
{

/** Median of @p v (mean of the two middle values for even sizes). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Percentile @p pct of host time per request over repeated rounds.
 *
 * @p runs holds one GapLog run per cell per round, cell-major within a
 * round, @p cells runs a round. Each round of a cell repeats the same
 * requests, so a cell's distribution is taken rank by rank: the median
 * across rounds of each order statistic. That keeps a burst of host
 * noise in some rounds out of the percentiles. Unless @p speeds is
 * empty, each run's gaps are first scaled by its entry (the host speed
 * the run was timed at, one per run). The cells' distributions are then
 * pooled, each point weighted by the gaps it stands for, and the
 * nearest-rank percentile (the engine's own rank rule) read off; a tail
 * is only reported where at least ten requests are slower than it, so
 * nothing is returned when fewer than
 * ten gaps of a round lie beyond it, or when a cell's rounds disagree
 * on their gap count.
 */
inline std::optional<double>
repeatedPercentile(const std::vector<GapLog::Run> &runs,
                   const std::vector<double> &speeds, std::size_t cells,
                   double pct)
{
    if (cells == 0 || runs.size() < cells ||
        (!speeds.empty() && speeds.size() != runs.size()))
        return std::nullopt;
    const std::size_t rounds = runs.size() / cells;
    std::vector<std::pair<double, double>> points; // (value, weight)
    std::size_t perRound = 0;
    for (std::size_t c = 0; c < cells; ++c) {
        const GapLog::Run &first = runs[c];
        perRound += first.count;
        for (std::size_t i = 0; i < first.sorted.size(); ++i) {
            std::vector<double> at;
            for (std::size_t r = 0; r < rounds; ++r) {
                const std::size_t k = r * cells + c;
                const GapLog::Run &run = runs[k];
                if (run.count != first.count)
                    return std::nullopt;
                at.push_back(run.sorted[i] * (speeds.empty() ? 1 : speeds[k]));
            }
            points.emplace_back(median(std::move(at)),
                                static_cast<double>(first.count) /
                                    static_cast<double>(first.sorted.size()));
        }
    }
    if (perRound == 0)
        return std::nullopt;
    const std::size_t rank =
        hfi::faas::LatencyRecorder::nearestRankIndex(pct, perRound) + 1;
    if (perRound - rank < 10)
        return std::nullopt;
    std::sort(points.begin(), points.end());
    double seen = 0;
    for (const auto &[value, weight] : points) {
        seen += weight;
        if (seen + 1e-9 >= static_cast<double>(rank))
            return value;
    }
    return points.back().first;
}

} // namespace hostbench

#endif // HOSTBENCH_STATS_H
