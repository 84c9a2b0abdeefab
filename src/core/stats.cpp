#include "core/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pointacc {

std::vector<double>
Summary::percentiles(const std::vector<double> &ps) const
{
    std::vector<double> out(ps.size(), 0.0);
    if (samples.empty())
        return out;
    // (rank, index into ps), visited by ascending rank.
    std::vector<std::pair<std::size_t, std::size_t>> ranks;
    ranks.reserve(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const double clamped = std::clamp(ps[i], 0.0, 1.0);
        ranks.emplace_back(
            static_cast<std::size_t>(
                clamped * static_cast<double>(samples.size() - 1) + 0.5),
            i);
    }
    std::sort(ranks.begin(), ranks.end());

    std::vector<double> scratch(samples);
    auto from = scratch.begin();
    for (const auto &[rank, i] : ranks) {
        const auto nth = scratch.begin() + static_cast<std::ptrdiff_t>(rank);
        if (nth >= from) {
            std::nth_element(from, nth, scratch.end());
            from = nth + 1;
        }
        out[i] = *nth;
    }
    return out;
}

void
Moments::merge(const Moments &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    n += other.n;
    total += other.total;
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
}

void
Summary::merge(const Summary &other)
{
    samples.insert(samples.end(), other.samples.begin(),
                   other.samples.end());
    stats.merge(other.stats);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            throw std::invalid_argument(
                "geomean: non-positive sample (geometric means are "
                "defined over strictly positive values)");
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

} // namespace pointacc
