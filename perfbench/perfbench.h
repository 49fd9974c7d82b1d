/**
 * @file
 * Shared pieces of the repository benchmark: the seeded input
 * generator, the latency histogram, the span tracer, and the result
 * each workload hands back to main().
 *
 * Everything here lives outside the program: the benchmark measures
 * CubicleOS only from the outside, by timing calls into the public API
 * of core::System, the libOS components, httpd, minisql and
 * libos::FileApi.
 */

#ifndef CUBICLEOS_PERFBENCH_PERFBENCH_H_
#define CUBICLEOS_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/system.h"

namespace perfbench {

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The benchmark's own input generator (splitmix64). */
class Rng {
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}

    uint64_t next()
    {
        uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    uint64_t below(uint64_t n) { return next() % n; }
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    /** Log-uniform integer in [lo, hi]. */
    uint64_t logUniform(uint64_t lo, uint64_t hi)
    {
        const double l = std::log(static_cast<double>(lo));
        const double h = std::log(static_cast<double>(hi));
        return static_cast<uint64_t>(std::exp(l + unit() * (h - l)));
    }

  private:
    uint64_t s_;
};

/**
 * Latency histogram with fixed memory: logarithmic buckets 0.5 % wide,
 * quantiles interpolated inside the bucket. Fixed memory keeps the
 * generator out of the process's peak RSS however many operations a
 * run completes.
 */
class Histogram {
  public:
    void add(int64_t ns)
    {
        const double v = ns < 1 ? 1.0 : static_cast<double>(ns);
        std::size_t b = static_cast<std::size_t>(std::log(v) / kLogGrowth);
        if (b >= kBuckets)
            b = kBuckets - 1;
        ++buckets_[b];
        ++count_;
        sumNs_ += static_cast<double>(ns);
    }
    void merge(const Histogram &o)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            buckets_[i] += o.buckets_[i];
        count_ += o.count_;
        sumNs_ += o.sumNs_;
    }
    double sumNs() const { return sumNs_; }
    /** The @p q quantile in nanoseconds (0 when empty). */
    double quantileNs(double q) const
    {
        if (count_ == 0)
            return 0;
        const double rank = q * static_cast<double>(count_ - 1);
        uint64_t below = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            if (buckets_[b] == 0)
                continue;
            if (static_cast<double>(below + buckets_[b]) > rank) {
                const double frac = (rank - static_cast<double>(below) + 0.5) /
                                    static_cast<double>(buckets_[b]);
                return std::exp((static_cast<double>(b) + frac) * kLogGrowth);
            }
            below += buckets_[b];
        }
        return std::exp(static_cast<double>(kBuckets) * kLogGrowth);
    }

  private:
    static constexpr std::size_t kBuckets = 5200; // up to ~190 s
    static inline const double kLogGrowth = std::log(1.005);

    std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets);
    uint64_t count_ = 0;
    double sumNs_ = 0;
};

/** One recorded span. Spans of one operation share @c op. */
struct Span {
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint64_t op = 0;
    int32_t parent = -1; ///< index of the enclosing span, -1 at top
    uint16_t name = 0;   ///< index into the tracer's name table
};

/**
 * In-memory span recorder for the traced run. Disabled, every call is
 * a branch on one bool. Enabled, each span also feeds a per-name
 * histogram, so per-layer times cover the whole run even after the
 * stored span list reaches its cap. One Tracer per thread.
 */
class Tracer {
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_ && live_; }
    /** Pauses recording (warm-up) without losing what was recorded. */
    void setLive(bool live) { live_ = live; }
    void setOp(uint64_t op) { op_ = op; }

    int32_t open(const char *name)
    {
        if (!on())
            return -1;
        Frame f{nameIndex(name), nowNs(), -1};
        if (spans_.size() < kMaxStoredSpans) {
            f.stored = static_cast<int32_t>(spans_.size());
            spans_.push_back(Span{f.start, 0, op_, parentStored(), f.name});
        }
        stack_.push_back(f);
        return static_cast<int32_t>(stack_.size() - 1);
    }
    /** Closes the span @p depth returned by open(); its duration. */
    int64_t close(int32_t depth)
    {
        if (depth < 0)
            return 0;
        const Frame f = stack_[static_cast<std::size_t>(depth)];
        stack_.resize(static_cast<std::size_t>(depth));
        const int64_t end = nowNs();
        if (f.stored >= 0)
            spans_[static_cast<std::size_t>(f.stored)].endNs = end;
        byName_[f.name].add(end - f.start);
        return end - f.start;
    }

    /** RAII span. */
    class Scope {
      public:
        Scope(Tracer &t, const char *name) : t_(t), d_(t.open(name)) {}
        ~Scope() { t_.close(d_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int32_t d_;
    };

    /** Aggregate of every closed span called @p name. */
    const Histogram &stat(const std::string &name) const;
    /** Total nanoseconds of spans whose name starts with @p prefix. */
    double totalNsWithPrefix(const std::string &prefix) const;
    /** Appends another thread's spans and aggregates. */
    void absorb(const Tracer &other);
    /** Writes the stored spans as JSON to @p path. */
    void write(const std::string &path) const;

  private:
    static constexpr std::size_t kMaxStoredSpans = 200000;

    struct Frame {
        uint16_t name;
        int64_t start;
        int32_t stored;
    };

    uint16_t nameIndex(const char *name);
    int32_t parentStored() const
    {
        for (auto it = stack_.rbegin(); it != stack_.rend(); ++it)
            if (it->stored >= 0)
                return it->stored;
        return -1;
    }

    bool on_;
    bool live_ = true;
    uint64_t op_ = 0;
    std::vector<std::string> names_;
    std::vector<Histogram> byName_;
    std::vector<Span> spans_;
    std::vector<Frame> stack_;
};

/** Counters read from core::Stats and the clock, before and after. */
struct CoreCounts {
    uint64_t calls = 0, wrpkrus = 0, windowOps = 0, traps = 0;
    uint64_t retagPages = 0, grantCacheHits = 0, ringFlushes = 0;
    uint64_t ringCalls = 0, evictions = 0, faultInPages = 0;
    uint64_t tagHits = 0, tagMisses = 0, dataCopyBytes = 0;
    uint64_t zeroCopyBytes = 0, cycles = 0;

    static CoreCounts read(cubicleos::core::System &sys);
    CoreCounts &operator+=(const CoreCounts &o);
    CoreCounts operator-(const CoreCounts &o) const;
};

/**
 * Throughput over consecutive windows of host time. A run's ops_per_s
 * is the median window's rate, so that a burst of load from elsewhere
 * on the host moves a few windows rather than the figure.
 */
class RateWindows {
  public:
    static constexpr int64_t kWindowNs = 250'000'000;

    /** Opens the first window at @p now. */
    void start(int64_t now) { start_ = now; }
    /**
     * Closes the current window if it has lasted kWindowNs: @p done
     * operations have completed so far, and @p excludedNs of the host
     * time so far was the benchmark's own (generation and checking).
     */
    void tick(int64_t now, uint64_t done, int64_t excludedNs = 0)
    {
        if (now - start_ < kWindowNs)
            return;
        const double s =
            static_cast<double>(now - start_ - (excludedNs - excluded_)) /
            1e9;
        if (s > 0)
            rates.push_back(static_cast<double>(done - done_) / s);
        start_ = now;
        done_ = done;
        excluded_ = excludedNs;
    }

    std::vector<double> rates; ///< operations per second, one per window

  private:
    int64_t start_ = 0;
    uint64_t done_ = 0;
    int64_t excluded_ = 0;
};

/** What one workload run hands back. */
struct Outcome {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> errors; ///< first few check failures

    // End-to-end.
    double measuredS = 0; ///< host time of the measured phase
    uint64_t completed = 0;
    RateWindows windows; ///< throughput over the measured phase
    Histogram latency;
    std::vector<double> setupS; ///< one entry per set-up

    /** Per-layer metrics by name; a metric not set reads 0. */
    std::map<std::string, double> layer;

    void fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 8)
            errors.push_back(why);
    }
    void wrong(const std::string &why)
    {
        correct = false;
        if (errors.size() < 8)
            errors.push_back(why);
    }
    void set(const std::string &name, double v) { layer[name] = v; }
};

/** Options every workload receives. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    cubicleos::core::IsolationMode mode =
        cubicleos::core::IsolationMode::kFull;
};

/** Set-ups timed for setup_s; the last one serves the measured phase. */
inline constexpr int kSetups = 3;

/** Operations over which count-type per-layer metrics are taken. */
inline constexpr uint64_t kCountWindowOps = 1000;

/**
 * Fills the core.*, keytable.* and grant.* count metrics from @p d,
 * the counter delta over @p ops operations.
 */
void setCoreCounts(Outcome &out, const CoreCounts &d, uint64_t ops);

/**
 * Fills loader.* and verifier.* from the serving deployment's counters
 * and the set-up spans.
 */
void setLoaderMetrics(Outcome &out, cubicleos::core::System &sys,
                      const Tracer &tr);

/** Drops the process-wide verifier memo so each set-up boots cold. */
void coldLoaderCaches();

/** Byte-content property of every served file (httpd::createFile). */
bool bodyPropertyHolds(const std::string &body);
/** FNV-1a 64 over @p s (body identity, xcall request checksum). */
uint64_t fnv1a(std::string_view s);

// Workloads: each sets up, measures for opt.seconds and checks.
Outcome runHttpTenants(const Options &opt, Tracer &tr);
Outcome runHttpBulk(const Options &opt, Tracer &tr);
Outcome runSqlOltp(const Options &opt, Tracer &tr);
Outcome runXcallMt(const Options &opt, Tracer &tr);

// Checker self-tests: each feeds one workload's checker real outputs
// and corrupted copies, and passes when exactly the corrupted ones are
// counted as failed operations.
bool selfTestHttp();
bool selfTestSql();
bool selfTestXcall();

} // namespace perfbench

#endif // CUBICLEOS_PERFBENCH_PERFBENCH_H_
