/**
 * @file
 * Lightweight counter/accumulator statistics used by every hardware model.
 *
 * Each unit owns its own stats struct; this header only provides the
 * shared primitives (a named-counter registry used by integration tests,
 * sample-free streaming moments, and a sample-keeping summary used for
 * latency percentiles and the DRAM-distribution experiment, Fig. 19).
 */

#ifndef POINTACC_CORE_STATS_HPP
#define POINTACC_CORE_STATS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pointacc {

/** A simple named 64-bit counter registry. */
class StatRegistry
{
  public:
    void
    add(const std::string &name, std::uint64_t delta = 1)
    {
        counters[name] += delta;
    }

    std::uint64_t
    get(const std::string &name) const
    {
        const auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    void clear() { counters.clear(); }

    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters;
    }

  private:
    std::map<std::string, std::uint64_t> counters;
};

/**
 * Sample-free streaming moments: count / sum / min / max / mean in
 * O(1) memory. For series that are only ever read through their
 * moments (per-request queue waits, per-dispatch batch sizes), so a
 * 10^6-request report does not hold 10^6 samples nobody reads.
 */
class Moments
{
  public:
    void
    record(double v)
    {
        total += v;
        if (n++ == 0) {
            lo = hi = v;
        } else {
            if (v < lo) lo = v;
            if (v > hi) hi = v;
        }
    }

    /** Fold another accumulator into this one, as if its samples had
     *  been record()ed here after ours (the sum adds other's total). */
    void merge(const Moments &other);

    /** Reset to the freshly constructed state. */
    void clear() { *this = Moments(); }

    std::size_t count() const { return n; }
    double sum() const { return total; }
    double min() const { return lo; }
    double max() const { return hi; }

    double
    mean() const
    {
        return n == 0 ? 0.0 : total / static_cast<double>(n);
    }

  private:
    std::size_t n = 0;
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * Streaming scalar summary: the Moments of a series plus its raw
 * samples, so percentiles and distribution plots (violin-style,
 * Fig. 19) can be rebuilt.
 */
class Summary
{
  public:
    void
    record(double v)
    {
        samples.push_back(v);
        stats.record(v);
    }

    /** Fold another summary into this one, as if every sample of
     *  `other` had been record()ed here (append order: ours first,
     *  then other's — percentiles are permutation-invariant, so the
     *  merged summary equals a single-summary run over the union).
     *  The shard-merge primitive behind bench_simperf's per-shard
     *  event loops. */
    void merge(const Summary &other);

    /** Reset to the freshly constructed state (capacity retained). */
    void
    clear()
    {
        samples.clear();
        stats.clear();
    }

    /** Pre-size the sample buffer (million-request runs would otherwise
     *  pay log2(n) reallocations; the values recorded are unchanged). */
    void reserve(std::size_t n) { samples.reserve(n); }

    std::size_t count() const { return stats.count(); }
    double sum() const { return stats.sum(); }
    double min() const { return stats.min(); }
    double max() const { return stats.max(); }
    double mean() const { return stats.mean(); }

    /** p in [0,1]; nearest-rank percentile over recorded samples.
     *  Selection (nth_element, O(n)) over a transient copy freed on
     *  return: the samples keep their record order and no second
     *  sample-sized buffer outlives the call. */
    double percentile(double p) const { return percentiles({p}).front(); }

    /** percentile(p) for every p in `ps` (any order), from one
     *  transient copy: ranks are selected in ascending order, each
     *  over the suffix the previous selection left above it. */
    std::vector<double> percentiles(const std::vector<double> &ps) const;

    const std::vector<double> &data() const { return samples; }

  private:
    std::vector<double> samples;
    Moments stats;
};

/**
 * Geometric mean of a vector of strictly positive values (0 when
 * empty). Zero or negative samples throw std::invalid_argument: a
 * zero would silently collapse the mean to 0 through log(0) = -inf
 * and a negative would poison it with NaN, so a non-positive ratio
 * reaching this function is always a caller bug worth failing loudly.
 */
double geomean(const std::vector<double> &values);

} // namespace pointacc

#endif // POINTACC_CORE_STATS_HPP
