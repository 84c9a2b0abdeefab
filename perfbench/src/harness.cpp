#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include <time.h>

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
fastest(const std::vector<double> &samples)
{
    return samples.empty() ? 0.0
                           : *std::min_element(samples.begin(), samples.end());
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            const double kib = std::strtod(line.c_str() + 6, nullptr);
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::vector<double>
repeatFor(double seconds, std::size_t min_reps,
          const std::function<double()> &fn)
{
    std::vector<double> samples;
    const auto start = Clock::now();
    while (samples.size() < min_reps || secondsSince(start) < seconds)
        samples.push_back(fn());
    return samples;
}

double
medianSeconds(std::size_t reps, const std::function<void()> &fn)
{
    std::vector<double> samples;
    for (std::size_t i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        samples.push_back(secondsSince(t0));
    }
    return median(samples);
}

double
medianCpuSeconds(std::size_t reps, const std::function<void()> &fn)
{
    std::vector<double> samples;
    for (std::size_t i = 0; i < reps; ++i) {
        const double t0 = threadCpuSeconds();
        fn();
        samples.push_back(threadCpuSeconds() - t0);
    }
    return median(samples);
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++numAttempted;
    if (!ok)
        failures.push_back(what);
}

void
Digest::add(const std::string &bytes)
{
    for (const char c : bytes) {
        state ^= static_cast<unsigned char>(c);
        state *= 1099511628211ULL;
    }
    // Separator, so ("ab", "c") and ("a", "bc") differ.
    state ^= 0xff;
    state *= 1099511628211ULL;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(state));
    return buf;
}

Tracer::Tracer(bool enabled) : on(enabled), epoch(Clock::now()) {}

int
Tracer::begin(const std::string &name, std::uint64_t op)
{
    if (!on)
        return -1;
    Span s;
    s.name = name;
    s.parent = open.empty() ? -1 : open.back();
    s.op = op;
    s.startNs =
        std::chrono::duration<double, std::nano>(Clock::now() - epoch)
            .count();
    spans.push_back(std::move(s));
    open.push_back(static_cast<int>(spans.size() - 1));
    return open.back();
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    spans[static_cast<std::size_t>(index)].endNs =
        std::chrono::duration<double, std::nano>(Clock::now() - epoch)
            .count();
    // Spans close in LIFO order (ScopedSpan), so `index` is the top.
    open.pop_back();
}

double
Tracer::totalMs(const std::string &name) const
{
    double ns = 0.0;
    for (const Span &s : spans)
        if (s.name == name)
            ns += s.endNs - s.startNs;
    return ns / 1e6;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\",\"start_ns\":%.0f,\"end_ns\":%.0f,"
                      "\"parent\":%d,\"op\":%llu}%s\n",
                      s.startNs, s.endNs, s.parent,
                      static_cast<unsigned long long>(s.op),
                      i + 1 < spans.size() ? "," : "");
        out << "{\"id\":" << i << ",\"name\":\"" << s.name << buf;
    }
    out << "]\n";
    out.flush();
    if (!out.good())
        throw std::runtime_error("could not write spans to " + path);
}

} // namespace perfbench
