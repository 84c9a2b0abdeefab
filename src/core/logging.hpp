/**
 * @file
 * Minimal gem5-style status/error helpers.
 *
 * panic()  — the *simulator's* fault (internal invariant broken); aborts.
 * warn()   — something works but is suspicious.
 * inform() — status messages.
 *
 * There is no helper for the *user's* fault (a bad configuration or
 * input): library validators throw std::invalid_argument instead, so
 * the library never exits its host process.
 */

#ifndef POINTACC_CORE_LOGGING_HPP
#define POINTACC_CORE_LOGGING_HPP

#include <cstdio>
#include <cstdlib>
#include <string>

namespace pointacc {

[[noreturn]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

inline void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

inline void
inform(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

/** panic() unless a simulator invariant holds. */
inline void
simAssert(bool cond, const char *what)
{
    if (!cond)
        panic(std::string("assertion failed: ") + what);
}

} // namespace pointacc

#endif // POINTACC_CORE_LOGGING_HPP
