/**
 * @file
 * sql_oltp: an OLTP statement mix on the Fig. 8 7-cubicle minisql
 * deployment in full isolation.
 *
 * The database runs inside the "sqlite" application cubicle over a
 * forwarding libos::FileApi wrapped around the deployment's
 * CubicleFileApi, so every file call (and its fsyncs and bytes) is
 * counted and, in the traced run, timed as a fileapi.<call> span. The
 * benchmark keeps a shadow model of the table and checks every
 * SELECT result, every write's change count, PRAGMA integrity_check
 * and a final full scan against it.
 */

#include <limits>
#include <map>
#include <memory>

#include "apps/minisql/db.h"
#include "libos/app.h"
#include "libos/stack.h"
#include "libos/ukapi.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace cubicleos;
using minisql::ResultSet;

/** Counters of the forwarding FileApi. */
struct FileCounts {
    uint64_t calls = 0, fsyncs = 0, bytes = 0;
};

/** Forwards every call to the deployment's FileApi; counts and times. */
class TracedFileApi : public libos::FileApi {
  public:
    TracedFileApi(libos::FileApi &inner, Tracer &tr) : in_(inner), tr_(tr) {}

    int open(const char *p, int f) override
    {
        return call("fileapi.open", [&] { return in_.open(p, f); });
    }
    int close(int fd) override
    {
        return call("fileapi.close", [&] { return in_.close(fd); });
    }
    int64_t read(int fd, void *b, std::size_t n) override
    {
        return io("fileapi.read", [&] { return in_.read(fd, b, n); });
    }
    int64_t write(int fd, const void *b, std::size_t n) override
    {
        return io("fileapi.write", [&] { return in_.write(fd, b, n); });
    }
    int64_t pread(int fd, void *b, std::size_t n, uint64_t off) override
    {
        return io("fileapi.pread",
                  [&] { return in_.pread(fd, b, n, off); });
    }
    int64_t pwrite(int fd, const void *b, std::size_t n,
                   uint64_t off) override
    {
        return io("fileapi.pwrite",
                  [&] { return in_.pwrite(fd, b, n, off); });
    }
    int64_t lseek(int fd, int64_t off, int whence) override
    {
        return call("fileapi.lseek",
                    [&] { return in_.lseek(fd, off, whence); });
    }
    int stat(const char *p, libos::VfsStat *st) override
    {
        return call("fileapi.stat", [&] { return in_.stat(p, st); });
    }
    int fstat(int fd, libos::VfsStat *st) override
    {
        return call("fileapi.fstat", [&] { return in_.fstat(fd, st); });
    }
    int unlink(const char *p) override
    {
        return call("fileapi.unlink", [&] { return in_.unlink(p); });
    }
    int mkdir(const char *p) override
    {
        return call("fileapi.mkdir", [&] { return in_.mkdir(p); });
    }
    int ftruncate(int fd, uint64_t size) override
    {
        return call("fileapi.ftruncate",
                    [&] { return in_.ftruncate(fd, size); });
    }
    int fsync(int fd) override
    {
        ++counts_.fsyncs;
        return call("fileapi.fsync", [&] { return in_.fsync(fd); });
    }
    int readdir(const char *p, uint64_t idx, libos::VfsDirent *out) override
    {
        return call("fileapi.readdir",
                    [&] { return in_.readdir(p, idx, out); });
    }

    const FileCounts &counts() const { return counts_; }

  private:
    template <typename F>
    auto call(const char *span, F &&f) -> decltype(f())
    {
        ++counts_.calls;
        Tracer::Scope s(tr_, span);
        return f();
    }
    template <typename F>
    int64_t io(const char *span, F &&f)
    {
        const int64_t n = call(span, std::forward<F>(f));
        if (n > 0)
            counts_.bytes += static_cast<uint64_t>(n);
        return n;
    }

    libos::FileApi &in_;
    Tracer &tr_;
    FileCounts counts_;
};

/** The 7-cubicle deployment with the database open inside the app. */
class SqlDeployment {
  public:
    SqlDeployment(core::IsolationMode mode, std::size_t cachePages,
                  Tracer &tr)
    {
        core::SystemConfig cfg;
        cfg.numPages = 32768;
        cfg.mode = mode;
        sys_ = std::make_unique<core::System>(cfg);
        libos::addLibosComponents(*sys_);
        app_ = static_cast<libos::AppComponent *>(&sys_->addComponent(
            std::make_unique<libos::AppComponent>("sqlite")));
        libos::finishBoot(*sys_);
        app_->run([&] {
            fs_ = std::make_unique<libos::CubicleFileApi>(*sys_, "ramfs");
            traced_ = std::make_unique<TracedFileApi>(*fs_, tr);
            minisql::DbAllocator mem;
            core::System *sys = sys_.get();
            mem.alloc = [sys](std::size_t n) { return sys->heapAlloc(n); };
            mem.free = [sys](void *p) { sys->heapFree(p); };
            db_ = std::make_unique<minisql::Database>(
                traced_.get(), "/oltp.db", cachePages, mem);
            if (db_->open() != 0)
                throw std::runtime_error("sql_oltp: open failed");
        });
    }
    ~SqlDeployment()
    {
        app_->run([&] {
            db_.reset();
            traced_.reset();
            fs_.reset();
        });
    }
    SqlDeployment(const SqlDeployment &) = delete;
    SqlDeployment &operator=(const SqlDeployment &) = delete;

    /** Runs @p sql inside the application cubicle. */
    ResultSet exec(const std::string &sql)
    {
        return app_->run([&] { return db_->exec(sql); });
    }

    core::System &sys() { return *sys_; }
    minisql::Database &db() { return *db_; }
    const FileCounts &fileCounts() const { return traced_->counts(); }

  private:
    std::unique_ptr<core::System> sys_;
    libos::AppComponent *app_ = nullptr;
    std::unique_ptr<libos::CubicleFileApi> fs_;
    std::unique_ptr<TracedFileApi> traced_;
    std::unique_ptr<minisql::Database> db_;
};

/** One row of the shadow model. */
struct ShadowRow {
    int64_t k = 0;
    std::string v;
};

/** The table as the benchmark believes it to be. */
class Shadow {
  public:
    void put(int64_t id, ShadowRow r)
    {
        if (!rows_.count(id))
            live_.push_back(id);
        rows_[id] = std::move(r);
    }
    void erase(int64_t id)
    {
        rows_.erase(id);
        for (std::size_t i = 0; i < live_.size(); ++i) {
            if (live_[i] == id) {
                live_[i] = live_.back();
                live_.pop_back();
                break;
            }
        }
    }
    const std::map<int64_t, ShadowRow> &rows() const { return rows_; }
    /** A live id, uniformly (deterministic for a given history). */
    int64_t anyLive(Rng &rng) const { return live_[rng.below(live_.size())]; }

  private:
    std::map<int64_t, ShadowRow> rows_;
    std::vector<int64_t> live_;
};

/** Unique secondary key of row @p id (a bijection on 31-bit ids). */
int64_t
keyOf(int64_t id)
{
    return static_cast<int64_t>((static_cast<uint64_t>(id) * 0x9E3779B1u) &
                                0x7fffffff);
}

std::string
randomText(Rng &rng, std::size_t n)
{
    std::string s(n, ' ');
    for (char &c : s)
        c = static_cast<char>('a' + rng.below(26));
    return s;
}

/**
 * Compares @p rs, the rows of "SELECT id, k, v ... ORDER BY rowid",
 * with the shadow rows whose ids lie in [lo, hi] (and, when @p onlyId
 * is set, only that id). @return empty, or what differs.
 */
std::string
checkRows(const ResultSet &rs, const std::map<int64_t, ShadowRow> &rows,
          int64_t lo, int64_t hi)
{
    auto it = rows.lower_bound(lo);
    std::size_t i = 0;
    for (; it != rows.end() && it->first <= hi; ++it, ++i) {
        if (i >= rs.rows.size())
            return "missing row id " + std::to_string(it->first);
        const auto &r = rs.rows[i];
        if (r.size() != 3 || r[0].asInt() != it->first ||
            r[1].asInt() != it->second.k || r[2].asText() != it->second.v)
            return "wrong row for id " + std::to_string(it->first);
    }
    if (i != rs.rows.size())
        return "unexpected extra rows";
    return {};
}

/** Statement kinds of the mix, with their minisql.* latency bucket. */
enum Kind { kHot, kCold, kIndexed, kRange, kUpdate, kInsert, kDelete };

/**
 * One round of the mix: 15 reads and 5 autocommit writes, interleaved.
 * Every run executes whole rounds.
 */
constexpr Kind kRound[] = {
    kHot,   kCold,   kHot,    kIndexed, kUpdate, kHot,  kRange,
    kCold,  kHot,    kInsert, kIndexed, kHot,    kUpdate, kCold,
    kRange, kDelete, kHot,    kIndexed, kUpdate, kCold,
};

} // namespace

Outcome
runSqlOltp(const Options &opt, Tracer &tr)
{
    constexpr std::size_t kCachePages = 64; // Fig. 6's pager cache
    constexpr int64_t kRows = 16000;        // ~5x the cache in table pages
    constexpr int64_t kHotRows = 128;       // the hot band: ids 1..128
    constexpr int64_t kRangeRows = 16;
    constexpr std::size_t kTextLen = 48;

    Outcome out;
    Rng rng(opt.seed);
    Shadow shadow;
    int64_t nextId = 1;
    std::vector<std::pair<int64_t, std::string>> initial;
    for (; nextId <= kRows; ++nextId)
        initial.emplace_back(nextId, randomText(rng, kTextLen));
    for (const auto &[id, v] : initial)
        shadow.put(id, {keyOf(id), v});

    std::unique_ptr<SqlDeployment> dep;
    for (int i = 0; i < kSetups; ++i) {
        dep.reset();
        coldLoaderCaches();
        const int64_t t0 = nowNs();
        {
            Tracer::Scope boot(tr, "loader.boot");
            dep = std::make_unique<SqlDeployment>(opt.mode, kCachePages, tr);
        }
        {
            Tracer::Scope load(tr, "loader.load");
            dep->exec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, "
                      "v TEXT)");
            dep->exec("CREATE INDEX tk ON t(k)");
            constexpr std::size_t kBatch = 1000;
            for (std::size_t b = 0; b < initial.size(); b += kBatch) {
                std::string sql = "BEGIN;";
                for (std::size_t j = b;
                     j < std::min(initial.size(), b + kBatch); ++j) {
                    const auto &[id, v] = initial[j];
                    sql += "INSERT INTO t VALUES (" + std::to_string(id) +
                           "," + std::to_string(keyOf(id)) + ",'" + v +
                           "');";
                }
                dep->exec(sql + "COMMIT;");
            }
        }
        out.setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    setLoaderMetrics(out, dep->sys(), tr);

    const std::string cols = "SELECT id, k, v FROM t WHERE ";
    Histogram byKind[7];
    int64_t execNs = 0; // host time of the last statement's exec()
    auto runOne = [&](Kind kind) -> std::string {
        std::string sql;
        int64_t lo = 0, hi = -1, want = 1;
        std::string text;
        switch (kind) {
          case kHot:
            lo = hi = 1 + static_cast<int64_t>(rng.below(kHotRows));
            sql = cols + "id = " + std::to_string(lo);
            break;
          case kCold:
            lo = hi = shadow.anyLive(rng);
            sql = cols + "id = " + std::to_string(lo);
            break;
          case kIndexed:
            lo = hi = shadow.anyLive(rng);
            sql = cols + "k = " + std::to_string(keyOf(lo));
            break;
          case kRange:
            lo = 1 + static_cast<int64_t>(rng.below(
                         static_cast<uint64_t>(nextId - 1)));
            hi = lo + kRangeRows - 1;
            sql = cols + "id BETWEEN " + std::to_string(lo) + " AND " +
                  std::to_string(hi);
            break;
          case kUpdate:
            lo = shadow.anyLive(rng);
            text = randomText(rng, kTextLen);
            sql = "UPDATE t SET v = '" + text + "' WHERE id = " +
                  std::to_string(lo);
            break;
          case kInsert:
            lo = nextId++;
            text = randomText(rng, kTextLen);
            sql = "INSERT INTO t VALUES (" + std::to_string(lo) + "," +
                  std::to_string(keyOf(lo)) + ",'" + text + "')";
            break;
          case kDelete:
            // Outside the hot band, so the hot band stays populated.
            do {
                lo = shadow.anyLive(rng);
            } while (lo <= kHotRows);
            sql = "DELETE FROM t WHERE id = " + std::to_string(lo);
            break;
        }
        ResultSet rs;
        {
            const int32_t d = tr.open("minisql.exec");
            const int64_t t0 = nowNs();
            rs = dep->exec(sql);
            execNs = nowNs() - t0;
            byKind[kind].add(tr.close(d));
        }
        switch (kind) {
          case kUpdate:
            shadow.put(lo, {keyOf(lo), text});
            break;
          case kInsert:
            shadow.put(lo, {keyOf(lo), text});
            break;
          case kDelete:
            shadow.erase(lo);
            break;
          default:
            return checkRows(rs, shadow.rows(), lo, hi);
        }
        return rs.scalarInt() == want ? std::string()
                                      : sql.substr(0, 6) + " changed " +
                std::to_string(rs.scalarInt()) + " rows";
    };

    // Warm-up: one pass of point reads over the hot band.
    tr.setLive(false);
    for (int64_t id = 1; id <= kHotRows; ++id) {
        const std::string err = checkRows(
            dep->exec(cols + "id = " + std::to_string(id)), shadow.rows(),
            id, id);
        if (!err.empty())
            out.wrong("warm-up: " + err);
    }
    tr.setLive(true);

    core::System &sys = dep->sys();
    const CoreCounts c0 = CoreCounts::read(sys);
    const minisql::PagerStats p0 = dep->db().pagerStats();
    const FileCounts f0 = dep->fileCounts();
    CoreCounts c1;
    minisql::PagerStats p1;
    FileCounts f1;

    const double fileNs0 = tr.totalNsWithPrefix("fileapi.");
    int64_t checkNs = 0;
    const int64_t start = nowNs();
    const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
    out.windows.start(start);
    while (nowNs() < deadline || out.attempted < kCountWindowOps) {
        for (Kind kind : kRound) {
            tr.setOp(++out.attempted); // op 0 is set-up
            const int64_t t0 = nowNs();
            std::string err;
            execNs = 0;
            try {
                err = runOne(kind);
            } catch (const std::exception &e) {
                err = e.what();
            }
            out.latency.add(execNs);
            if (err.empty())
                ++out.completed;
            else
                out.fail(err);
            if (out.attempted == kCountWindowOps) {
                c1 = CoreCounts::read(sys);
                p1 = dep->db().pagerStats();
                f1 = dep->fileCounts();
            }
            // Only exec() is the program's time: statement generation
            // and checking are the benchmark's.
            const int64_t t1 = nowNs();
            checkNs += t1 - t0 - execNs;
            out.windows.tick(t1, out.completed, checkNs);
        }
    }
    out.measuredS = static_cast<double>(nowNs() - start - checkNs) / 1e9;
    const double fileNs = tr.totalNsWithPrefix("fileapi.") - fileNs0;

    // End-of-run checks: B-tree integrity and a full scan.
    const ResultSet ic = dep->exec("PRAGMA integrity_check");
    if (ic.rows.size() != 1 || ic.rows[0][0].asText() != "ok")
        out.wrong("PRAGMA integrity_check: " +
                  (ic.rows.empty() ? std::string("no rows")
                                   : ic.rows[0][0].asText()));
    const std::string scan =
        checkRows(dep->exec("SELECT id, k, v FROM t"), shadow.rows(),
                  std::numeric_limits<int64_t>::min(),
                  std::numeric_limits<int64_t>::max());
    if (!scan.empty())
        out.wrong("final full scan: " + scan);

    const double n = static_cast<double>(kCountWindowOps);
    setCoreCounts(out, c1 - c0, kCountWindowOps);
    out.set("minisql.pager_hit_ratio",
            static_cast<double>(p1.cacheHits - p0.cacheHits) /
                static_cast<double>(p1.cacheHits - p0.cacheHits +
                                    p1.cacheMisses - p0.cacheMisses));
    out.set("minisql.page_reads_per_op",
            static_cast<double>(p1.pageReads - p0.pageReads) / n);
    out.set("minisql.page_writes_per_op",
            static_cast<double>(p1.pageWrites - p0.pageWrites) / n);
    out.set("fileapi.calls_per_op", static_cast<double>(f1.calls - f0.calls) / n);
    out.set("fileapi.fsyncs_per_op",
            static_cast<double>(f1.fsyncs - f0.fsyncs) / n);
    out.set("fileapi.bytes_per_op", static_cast<double>(f1.bytes - f0.bytes) / n);
    const double m = static_cast<double>(out.attempted);
    out.set("fileapi.us_per_op", fileNs / m / 1e3);
    Histogram writes;
    for (Kind k : {kUpdate, kInsert, kDelete})
        writes.merge(byKind[k]);
    Histogram range = byKind[kRange];
    Histogram hot = byKind[kHot];
    Histogram cold = byKind[kCold];
    cold.merge(byKind[kIndexed]);
    out.set("minisql.select_hot_us_p50", hot.quantileNs(0.5) / 1e3);
    out.set("minisql.select_cold_us_p50", cold.quantileNs(0.5) / 1e3);
    out.set("minisql.range_us_p50", range.quantileNs(0.5) / 1e3);
    out.set("minisql.write_us_p50", writes.quantileNs(0.5) / 1e3);
    out.set("minisql.write_us_p99", writes.quantileNs(0.99) / 1e3);
    return out;
}

} // namespace perfbench

namespace perfbench {

bool
selfTestSql()
{
    Tracer tr(false);
    SqlDeployment dep(core::IsolationMode::kFull, 16, tr);
    dep.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)");
    Shadow shadow;
    for (int64_t id = 1; id <= 3; ++id) {
        const std::string v = "row" + std::to_string(id);
        dep.exec("INSERT INTO t VALUES (" + std::to_string(id) + "," +
                 std::to_string(keyOf(id)) + ",'" + v + "')");
        shadow.put(id, {keyOf(id), v});
    }
    Outcome o;
    auto feed = [&](const ResultSet &rs, int64_t lo, int64_t hi) {
        ++o.attempted;
        const std::string err = checkRows(rs, shadow.rows(), lo, hi);
        if (err.empty())
            ++o.completed;
        else
            o.fail(err);
    };
    const ResultSet all = dep.exec("SELECT id, k, v FROM t");
    feed(all, 1, 3);
    ResultSet wrongText = all; // a wrong row
    wrongText.rows[1][2] = minisql::Value(std::string("wrong"));
    feed(wrongText, 1, 3);
    ResultSet missing = all;
    missing.rows.pop_back();
    feed(missing, 1, 3);
    ResultSet wrongKey = dep.exec("SELECT id, k, v FROM t WHERE id = 2");
    wrongKey.rows[0][1] = minisql::Value(int64_t{7});
    feed(wrongKey, 2, 2);
    return o.completed == 1 && o.failed == 3;
}

} // namespace perfbench
