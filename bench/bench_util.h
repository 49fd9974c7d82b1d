/**
 * @file
 * Shared helpers for the figure-reproduction benchmarks.
 *
 * Reported time = real wall time of the simulation + modelled
 * hardware cycles at the paper's 2.2 GHz. Real time covers the work
 * the simulation performs natively (B-tree operations, copies, table
 * lookups); modelled cycles cover what this machine cannot execute
 * (wrpkru, pkey retags, kernel IPC, wire latency).
 */

#ifndef CUBICLEOS_BENCH_BENCH_UTIL_H_
#define CUBICLEOS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "core/locking.h"
#include "hw/cycles.h"

namespace cubicleos::bench {

/** One measured interval. */
struct Measurement {
    double wallMs = 0;
    double modelMs = 0;
    double totalMs() const { return wallMs + modelMs; }
};

/** Times @p fn, attributing cycle growth on @p clock to the model. */
template <typename F>
Measurement
measure(hw::CycleClock &clock, F &&fn)
{
    Measurement m;
    const uint64_t cycles0 = clock.read();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    m.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    m.modelMs =
        hw::CycleClock::toNanoseconds(clock.read() - cycles0) / 1e6;
    return m;
}

/** Prints a rule line. */
inline void
rule(char c = '-', int width = 72)
{
    for (int i = 0; i < width; ++i)
        std::putchar(c);
    std::putchar('\n');
}

/** Prints a benchmark header box. */
inline void
header(const std::string &title, const std::string &paper_ref)
{
    rule('=');
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    rule('=');
}

/** Environment-variable integer override. */
inline int
intFromEnv(const char *name, int def, int min_value = 1)
{
    if (const char *s = std::getenv(name)) {
        const int v = std::atoi(s);
        return v < min_value ? min_value : v;
    }
    return def;
}

/** Environment-variable override for workload scale. */
inline int
scaleFromEnv(const char *name, int def)
{
    return intFromEnv(name, def, 10);
}

/**
 * Writes a BENCH_*.json file's build provenance: the CMake build type
 * (CUBICLE_BENCH_BUILD_TYPE, set by bench/CMakeLists.txt) and whether
 * the lockdep checker was compiled in. Emits two object
 * members, each ending in a comma, at the file's top level.
 */
inline void
jsonProvenance(FILE *json)
{
    std::fprintf(json,
                 "  \"build_type\": \"%s\",\n"
                 "  \"lockdep\": %s,\n",
                 CUBICLE_BENCH_BUILD_TYPE,
                 core::lockdep::kEnabled ? "true" : "false");
}

} // namespace cubicleos::bench

#endif // CUBICLEOS_BENCH_BENCH_UTIL_H_
