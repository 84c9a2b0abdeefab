/**
 * @file
 * Measurement harness shared by the benchmark workloads: host clock,
 * repetition loops, the span tracer, the correctness ledger and the
 * digest of simulated outputs.
 *
 * Host time (what the simulator costs to run) is measured with
 * std::chrono::steady_clock or, for single-threaded timed regions, the
 * thread's CPU clock; simulated time (what the modelled PointAcc would
 * take) only ever comes out of the library's reports.
 * Metric names say which one they carry: simulated ones start with
 * `model`.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/**
 * CPU seconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID).
 * Unlike wall time it leaves out the time the thread waited for a CPU,
 * including time a hypervisor gave the virtual CPU to another guest.
 * Host-cost metrics of single-threaded regions use it.
 */
double threadCpuSeconds();

/** Median of `samples` (mean of the middle pair for even counts). */
double median(std::vector<double> samples);

/**
 * Fastest of `samples`. Host-cost metrics report the fastest
 * repetition: a shared host only ever adds time to a deterministic
 * computation, so the minimum moves with the code and far less with
 * the neighbours than the median does.
 */
double fastest(const std::vector<double> &samples);

/** Peak resident set of this process in MiB (VmHWM). */
double peakRssMb();

/**
 * Call `fn` repeatedly until `seconds` of host time have passed and at
 * least `min_reps` calls were made. `fn` returns the host seconds of
 * its timed part (checks on its output stay outside); returns those.
 */
std::vector<double> repeatFor(double seconds, std::size_t min_reps,
                              const std::function<double()> &fn);

/** Median host seconds of `reps` calls of `fn`. */
double medianSeconds(std::size_t reps, const std::function<void()> &fn);

/** Median thread CPU seconds of `reps` calls of `fn`. */
double medianCpuSeconds(std::size_t reps, const std::function<void()> &fn);

/** One named number with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Checked operations: every simulation call whose output the
 *  benchmark verifies, and every cross-check. */
class Checks
{
  public:
    /** Count one checked operation; record it as failed unless `ok`. */
    void expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return numAttempted; }
    std::uint64_t failed() const { return failures.size(); }
    const std::vector<std::string> &failedOps() const { return failures; }

  private:
    std::uint64_t numAttempted = 0;
    std::vector<std::string> failures;
};

/** FNV-1a over a sequence of strings: the fingerprint of a workload's
 *  simulated outputs. */
class Digest
{
  public:
    void add(const std::string &bytes);
    std::string hex() const;

  private:
    std::uint64_t state = 14695981039346656037ULL;
};

/**
 * In-memory span recorder. A span has a name, host start and end (ns
 * since the tracer was made), the index of the span open when it began
 * (-1 for none) and an operation id shared by the spans of one
 * repetition. Disabled tracers record nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startNs = 0.0;
        double endNs = 0.0;
        int parent = -1;
        std::uint64_t op = 0;
    };

    explicit Tracer(bool enabled);

    /** Open a span under the innermost open one; returns its index
     *  (-1 when disabled). */
    int begin(const std::string &name, std::uint64_t op);
    void end(int index);

    /** Summed duration of spans named `name`, in ms. */
    double totalMs(const std::string &name) const;
    std::size_t size() const { return spans.size(); }

    /** Write every span as a JSON array to `path`; throws
     *  std::runtime_error when the file cannot be written. */
    void write(const std::string &path) const;

  private:
    bool on;
    Clock::time_point epoch;
    std::vector<Span> spans;
    std::vector<int> open;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name, std::uint64_t op)
        : t(tracer), index(tracer.begin(name, op))
    {
    }
    ~ScopedSpan() { t.end(index); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t;
    int index;
};

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (empty = nowhere). */
    std::string tracePath;
};

/** Everything one workload run produces. */
struct Outcome
{
    Checks checks;
    /** End-to-end metrics, measured with tracing off. */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics (traced runs only). */
    std::vector<Metric> layers;
    /** Digest of this seed's simulated outputs (informational). */
    std::string digest;
    /** Digest of the same workload at the pinned canonical seed;
     *  compared against perfbench/digests.json. */
    std::string canonicalDigest;
};

/** Set-ups per run; setup_s is their median thread CPU time. The
 *  first few set-ups of a process also fault in fresh heap pages and
 *  take up to twice as long; 15 keeps the median clear of them. */
constexpr std::size_t kSetupReps = 15;

/** Seed the digest check pins every workload to. */
constexpr std::uint64_t kCanonicalSeed = 0;

Outcome runAccelSuite(const Options &opt);
Outcome runServe(const Options &opt, bool overload);
Outcome runPlanCold(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
