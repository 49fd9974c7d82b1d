/**
 * @file
 * perfbench: the repository benchmark's executable.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
 *             [--mode full|unikraft] [--trace-out <file>]
 *   perfbench --selftest
 *
 * Runs one workload in this process and prints, as its last line, one
 * JSON object: correctness, operations attempted and failed, the
 * end-to-end metrics, every per-layer metric, and the build's
 * provenance. perfbench/run.py builds this program, runs it and
 * reduces the object to the metrics BENCHMARK.json names.
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "core/verifier/cache.h"
#include "perfbench.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

uint16_t
Tracer::nameIndex(const char *name)
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<uint16_t>(i);
    names_.emplace_back(name);
    byName_.emplace_back();
    return static_cast<uint16_t>(names_.size() - 1);
}

const Histogram &
Tracer::stat(const std::string &name) const
{
    static const Histogram kEmpty;
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return byName_[i];
    return kEmpty;
}

double
Tracer::totalNsWithPrefix(const std::string &prefix) const
{
    double ns = 0;
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i].compare(0, prefix.size(), prefix) == 0)
            ns += byName_[i].sumNs();
    return ns;
}

void
Tracer::absorb(const Tracer &o)
{
    // Shift the other thread's operation ids above every id held here,
    // so that ids stay one per operation; 0 (set-up) stays 0.
    uint64_t opBase = 0;
    for (const Span &s : spans_)
        opBase = std::max(opBase, s.op);
    const int32_t base = static_cast<int32_t>(spans_.size());
    for (Span s : o.spans_) {
        if (spans_.size() >= kMaxStoredSpans)
            break;
        s.name = nameIndex(o.names_[s.name].c_str());
        if (s.parent >= 0)
            s.parent += base;
        if (s.op != 0)
            s.op += opBase;
        spans_.push_back(s);
    }
    for (std::size_t i = 0; i < o.names_.size(); ++i)
        byName_[nameIndex(o.names_[i].c_str())].merge(o.byName_[i]);
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return;
    f << "{\"names\": [";
    for (std::size_t i = 0; i < names_.size(); ++i)
        f << (i ? ", " : "") << '"' << names_[i] << '"';
    f << "],\n \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        f << (i ? ",\n" : "") << "  {\"name\": \"" << names_[s.name]
          << "\", \"op\": " << s.op << ", \"parent\": " << s.parent
          << ", \"start_ns\": " << s.startNs << ", \"end_ns\": "
          << s.endNs << "}";
    }
    f << "\n]}\n";
}

// ---------------------------------------------------------------------
// Counters and shared helpers
// ---------------------------------------------------------------------

CoreCounts
CoreCounts::read(cubicleos::core::System &sys)
{
    const auto &s = sys.stats();
    CoreCounts c;
    c.calls = s.totalCalls();
    c.wrpkrus = s.wrpkrus();
    c.windowOps = s.windowOps();
    c.traps = s.traps();
    c.retagPages = s.retagPages();
    c.grantCacheHits = s.grantCacheHits();
    c.ringFlushes = s.ringFlushes();
    c.ringCalls = s.ringCalls();
    c.evictions = s.evictions();
    c.faultInPages = s.faultInPages();
    c.tagHits = s.tagHits();
    c.tagMisses = s.tagMisses();
    c.dataCopyBytes = s.dataCopyBytes();
    c.zeroCopyBytes = s.zeroCopyBytes();
    c.cycles = sys.clock().read();
    return c;
}

#define PERFBENCH_CORE_FIELDS(X)                                          \
    X(calls) X(wrpkrus) X(windowOps) X(traps) X(retagPages)              \
    X(grantCacheHits) X(ringFlushes) X(ringCalls) X(evictions)           \
    X(faultInPages) X(tagHits) X(tagMisses) X(dataCopyBytes)             \
    X(zeroCopyBytes) X(cycles)

CoreCounts &
CoreCounts::operator+=(const CoreCounts &o)
{
#define PERFBENCH_ADD(f) f += o.f;
    PERFBENCH_CORE_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
    return *this;
}

CoreCounts
CoreCounts::operator-(const CoreCounts &o) const
{
    CoreCounts d = *this;
#define PERFBENCH_SUB(f) d.f -= o.f;
    PERFBENCH_CORE_FIELDS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
    return d;
}

namespace {

double
ratio(uint64_t num, uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/** Every per-layer metric with its unit, in BENCHMARK.json order. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"core.cross_calls_per_op", "count"},
    {"core.wrpkru_per_op", "count"},
    {"core.window_ops_per_op", "count"},
    {"core.traps_per_op", "count"},
    {"core.retag_pages_per_op", "pages"},
    {"core.grant_cache_hit_ratio", "ratio"},
    {"core.ring_calls_per_flush", "count"},
    {"core.model_us_per_op", "us"},
    {"core.xcall_us_p50", "us"},
    {"core.touch_us_per_op", "us"},
    {"core.window_restage_us_p50", "us"},
    {"keytable.evictions_per_op", "count"},
    {"keytable.fault_in_pages_per_op", "pages"},
    {"keytable.tag_hit_ratio", "ratio"},
    {"loader.boot_s", "s"},
    {"loader.load_s", "s"},
    {"verifier.images_verified", "count"},
    {"verifier.bytes_decoded", "bytes"},
    {"verifier.cache_hit_ratio", "ratio"},
    {"httpd.server_us_per_op", "us"},
    {"httpd.polls_per_op", "count"},
    {"loadgen.client_us_per_op", "us"},
    {"tcpip.segs_per_op", "count"},
    {"tcpip.payload_copy_bytes_per_op", "bytes"},
    {"tcpip.retransmits", "count"},
    {"grant.data_copy_bytes_per_op", "bytes"},
    {"grant.zero_copy_bytes_per_op", "bytes"},
    {"minisql.select_hot_us_p50", "us"},
    {"minisql.select_cold_us_p50", "us"},
    {"minisql.range_us_p50", "us"},
    {"minisql.write_us_p50", "us"},
    {"minisql.write_us_p99", "us"},
    {"minisql.pager_hit_ratio", "ratio"},
    {"minisql.page_reads_per_op", "count"},
    {"minisql.page_writes_per_op", "count"},
    {"fileapi.calls_per_op", "count"},
    {"fileapi.fsyncs_per_op", "count"},
    {"fileapi.bytes_per_op", "bytes"},
    {"fileapi.us_per_op", "us"},
};

} // namespace

void
setCoreCounts(Outcome &out, const CoreCounts &d, uint64_t ops)
{
    const double n = static_cast<double>(ops ? ops : 1);
    auto per = [n](uint64_t v) { return static_cast<double>(v) / n; };
    out.set("core.cross_calls_per_op", per(d.calls));
    out.set("core.wrpkru_per_op", per(d.wrpkrus));
    out.set("core.window_ops_per_op", per(d.windowOps));
    out.set("core.traps_per_op", per(d.traps));
    out.set("core.retag_pages_per_op", per(d.retagPages));
    out.set("core.grant_cache_hit_ratio",
            ratio(d.grantCacheHits, d.grantCacheHits + d.traps));
    out.set("core.ring_calls_per_flush", ratio(d.ringCalls, d.ringFlushes));
    out.set("core.model_us_per_op",
            cubicleos::hw::CycleClock::toNanoseconds(d.cycles) / n / 1e3);
    out.set("keytable.evictions_per_op", per(d.evictions));
    out.set("keytable.fault_in_pages_per_op", per(d.faultInPages));
    out.set("keytable.tag_hit_ratio",
            ratio(d.tagHits, d.tagHits + d.tagMisses));
    out.set("grant.data_copy_bytes_per_op", per(d.dataCopyBytes));
    out.set("grant.zero_copy_bytes_per_op", per(d.zeroCopyBytes));
}

void
setLoaderMetrics(Outcome &out, cubicleos::core::System &sys,
                 const Tracer &tr)
{
    const auto &s = sys.stats();
    out.set("verifier.images_verified",
            static_cast<double>(s.imagesVerified()));
    out.set("verifier.bytes_decoded",
            static_cast<double>(s.verifierBytesDecoded()));
    out.set("verifier.cache_hit_ratio",
            ratio(s.verifyCacheHits(),
                  s.verifyCacheHits() + s.verifyCacheMisses()));
    out.set("loader.boot_s", tr.stat("loader.boot").quantileNs(0.5) / 1e9);
    out.set("loader.load_s", tr.stat("loader.load").quantileNs(0.5) / 1e9);
}

void
coldLoaderCaches()
{
    cubicleos::core::verifier::VerifyCache::instance().clear();
}

bool
bodyPropertyHolds(const std::string &body)
{
    // httpd::NginxComponent::createFile writes 'A' + (off + d) % 26
    // with d in {0, 1, 2} drawn per byte.
    for (std::size_t i = 0; i < body.size(); ++i) {
        const int c = static_cast<unsigned char>(body[i]) - 'A';
        if (c < 0 || c >= 26)
            return false;
        const int d = (c - static_cast<int>(i % 26) + 26) % 26;
        if (d > 2)
            return false;
    }
    return true;
}

uint64_t
fnv1a(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace {

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string
num(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return o + '"';
}

/** Peak resident set of this process in MiB (VmHWM). */
double
peakRssMiB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void
printResult(const Options &opt, const Outcome &o)
{
    std::string s = "{\"correct\": ";
    s += o.correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(o.attempted);
    s += ", \"failed\": " + std::to_string(o.failed);
    s += ", \"completed\": " + std::to_string(o.completed);
    s += ", \"errors\": [";
    for (std::size_t i = 0; i < o.errors.size(); ++i)
        s += (i ? ", " : "") + quoted(o.errors[i]);
    s += "], \"end_to_end\": {";
    // The median window's rate; a run too short for one window falls
    // back to the rate over the whole measured phase.
    const double ops = !o.windows.rates.empty() ? median(o.windows.rates)
        : o.measuredS > 0 ? static_cast<double>(o.completed) / o.measuredS
                          : 0;
    s += "\"ops_per_s\": " + num(ops);
    s += ", \"latency_ms_p50\": " + num(o.latency.quantileNs(0.5) / 1e6);
    s += ", \"latency_ms_p99\": " + num(o.latency.quantileNs(0.99) / 1e6);
    s += ", \"setup_s\": " + num(median(o.setupS));
    s += ", \"peak_rss_mb\": " + num(peakRssMiB());
    s += "}, \"per_layer\": {";
    bool first = true;
    for (const auto &[name, unit] : kLayerMetrics) {
        const auto it = o.layer.find(name);
        s += (first ? "" : ", ") + quoted(name) + ": {\"value\": " +
             num(it == o.layer.end() ? 0.0 : it->second) +
             ", \"unit\": " + quoted(unit) + "}";
        first = false;
    }
    s += "}, \"provenance\": {\"build_type\": " +
         quoted(PERFBENCH_BUILD_TYPE) +
         ", \"lockdep\": " + (PERFBENCH_LOCKDEP ? "true" : "false") +
         ", \"mode\": " +
         quoted(opt.mode == cubicleos::core::IsolationMode::kUnikraft
                    ? "unikraft"
                    : "full") +
         ", \"setups\": " + std::to_string(kSetups) +
         ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + "}}";
    std::printf("%s\n", s.c_str());
}

/** Runs every checker self-test; 0 when each catches its faults. */
int
runSelfTest()
{
    const std::pair<const char *, bool (*)()> tests[] = {
        {"http: corrupted, truncated and missing bodies", selfTestHttp},
        {"sql: wrong, missing and mis-keyed rows", selfTestSql},
        {"xcall: wrong replies", selfTestXcall},
    };
    int bad = 0;
    for (const auto &[what, fn] : tests) {
        const bool ok = fn();
        std::printf("selftest %-48s %s\n", what, ok ? "ok" : "FAILED");
        bad += ok ? 0 : 1;
    }
    return bad == 0 ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <http_tenants|http_bulk|"
                 "sql_oltp|xcall_mt> --seed <n> --seconds <s> "
                 "[--trace 0|1] [--mode full|unikraft] "
                 "[--trace-out file]\n"
                 "       perfbench --selftest\n");
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    std::string traceOut;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--selftest")
            return runSelfTest();
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--trace-out")
            traceOut = v;
        else if (a == "--mode" && (v == "full" || v == "unikraft"))
            opt.mode = v == "full"
                ? cubicleos::core::IsolationMode::kFull
                : cubicleos::core::IsolationMode::kUnikraft;
        else
            return usage();
    }
    if (opt.seconds <= 0)
        return usage();

    Tracer tr(opt.trace);
    Outcome out;
    try {
        if (opt.workload == "http_tenants")
            out = runHttpTenants(opt, tr);
        else if (opt.workload == "http_bulk")
            out = runHttpBulk(opt, tr);
        else if (opt.workload == "sql_oltp")
            out = runSqlOltp(opt, tr);
        else if (opt.workload == "xcall_mt")
            out = runXcallMt(opt, tr);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s aborted: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    if (opt.trace && !traceOut.empty())
        tr.write(traceOut);
    printResult(opt, out);
    return 0;
}
