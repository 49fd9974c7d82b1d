/**
 * @file
 * xcall_mt: the multi-threaded cross-call path.
 *
 * Two worker threads, each in its own cubicle, loop: stage a request
 * in a grant window, cross-call a shared service cubicle that reads
 * the request and writes a reply into a window the caller opened, read
 * the reply. Every kRestagePeriod-th round trip the request window is
 * re-staged onto a fresh buffer (window remove + add, revocation epoch
 * bump, traps taken again). No libOS or application code runs here.
 *
 * Two threads rather than one per core: the host's cores are shared,
 * and a thread per core measures the scheduler more than the program.
 * Each thread is pinned to its own CPU: left free, the scheduler at
 * times runs both on one CPU, where they take turns instead of
 * contending and a run reads nearly twice as fast.
 */

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "libos/grant.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace cubicleos;

constexpr int kThreads = 2;
constexpr int kRestagePeriod = 16; ///< K: round trips per re-stage
constexpr std::size_t kRequestBytes = 256;

/** Checksum both sides compute over a request. */
uint64_t
checksum(const uint8_t *p, std::size_t n)
{
    return fnv1a({reinterpret_cast<const char *>(p), n});
}

/** The shared service: replies with the checksum of each request. */
class ServiceComponent : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "svc";
        return s;
    }
    void registerExports(core::Exporter &exp) override
    {
        exp.fn<long(const uint8_t *, std::size_t, uint64_t *)>(
            "serve", [this](const uint8_t *req, std::size_t n,
                            uint64_t *reply) {
                sys()->touch(req, n, hw::Access::kRead);
                const uint64_t sum = checksum(req, n);
                sys()->touch(reply, sizeof *reply, hw::Access::kWrite);
                *reply = sum;
                return 0L;
            });
    }
};

/** A caller cubicle; its code runs on a benchmark thread. */
class WorkerComponent : public core::Component {
  public:
    explicit WorkerComponent(std::string name) : name_(std::move(name)) {}
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = name_;
        return s;
    }
    void registerExports(core::Exporter &) override {}

  private:
    std::string name_;
};

using ServeFn = long(const uint8_t *, std::size_t, uint64_t *);

/**
 * The CPUs the workers are pinned to: the last kThreads of this
 * process's affinity mask, or none when it holds fewer.
 */
std::vector<int>
workerCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return {};
    std::vector<int> cpus;
    const auto want = static_cast<std::size_t>(kThreads);
    for (int c = CPU_SETSIZE - 1; c >= 0 && cpus.size() < want; --c)
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    if (cpus.size() < want)
        return {};
    return cpus;
}

/** Pins the calling thread to @p cpu. */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/** What one worker thread measured. */
struct WorkerResult {
    uint64_t attempted = 0, completed = 0;
    /// completed, published for the main thread's rate windows; on its
    /// own cache line so that those reads leave the other counters be
    alignas(64) std::atomic<uint64_t> done{0};
    Histogram latency;
    std::vector<std::string> errors;
};

/**
 * Whether @p reply answers @p req: the service's checksum must equal
 * the one the caller computes over its own request.
 */
bool
replyMatches(const uint8_t *req, std::size_t n, uint64_t reply)
{
    return reply == checksum(req, n);
}

void
worker(core::System &sys, core::Cid me, core::Cid svc,
       const core::CrossFn<ServeFn> &serve, uint64_t seed,
       const std::atomic<bool> &go, const std::atomic<bool> &stop,
       std::atomic<int> &ready, Tracer &tr, WorkerResult &r)
{
    sys.runAs(me, [&] {
        // Two request buffers the window alternates between, and one
        // reply slot; each on its own page of this cubicle's memory.
        uint8_t *req[2];
        for (auto &b : req)
            b = reinterpret_cast<uint8_t *>(
                sys.monitor().allocPagesFor(me, 1, mem::PageType::kHeap).ptr);
        auto *reply = reinterpret_cast<uint64_t *>(
            sys.monitor().allocPagesFor(me, 1, mem::PageType::kHeap).ptr);
        libos::GrantWindow reqWin(sys, libos::PeerSet{svc});
        reqWin.restage(req[0], kRequestBytes);
        reqWin.open(reqWin.peers());
        libos::GrantWindow replyWin(sys, libos::PeerSet{svc});
        replyWin.stage(reply, sizeof *reply);
        replyWin.open(replyWin.peers());

        Rng rng(seed);
        int cur = 0;
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire))
            std::this_thread::yield();

        while (!stop.load(std::memory_order_relaxed)) {
            for (int i = 0; i < kRestagePeriod; ++i) {
                tr.setOp(++r.attempted); // op 0 is set-up
                const uint64_t word = rng.next();
                const int64_t t0 = nowNs();
                const int32_t op = tr.open("xcall.round_trip");
                if (i == 0) {
                    Tracer::Scope s(tr, "core.window");
                    cur ^= 1;
                    reqWin.restage(req[cur], kRequestBytes);
                }
                uint8_t *q = req[cur];
                {
                    Tracer::Scope s(tr, "core.touch");
                    sys.touch(q, kRequestBytes, hw::Access::kWrite);
                }
                for (std::size_t j = 0; j < kRequestBytes; j += 8)
                    std::memcpy(q + j, &word, 8);
                q[r.attempted % kRequestBytes] ^= 0x5a;
                {
                    Tracer::Scope s(tr, "core.xcall");
                    serve(q, kRequestBytes, reply);
                }
                uint64_t got = 0;
                {
                    Tracer::Scope s(tr, "core.touch");
                    sys.touch(reply, sizeof *reply, hw::Access::kRead);
                }
                got = *reply;
                tr.close(op);
                const int64_t t1 = nowNs();
                r.latency.add(t1 - t0);
                if (replyMatches(q, kRequestBytes, got))
                    r.done.store(++r.completed, std::memory_order_relaxed);
                else if (r.errors.size() < 4)
                    r.errors.push_back("xcall reply does not match the "
                                       "request checksum");
            }
        }
        replyWin.destroy();
        reqWin.destroy();
    });
}

} // namespace

Outcome
runXcallMt(const Options &opt, Tracer &tr)
{
    Outcome out;
    std::unique_ptr<core::System> sys;
    for (int i = 0; i < kSetups; ++i) {
        sys.reset();
        coldLoaderCaches();
        const int64_t t0 = nowNs();
        {
            Tracer::Scope boot(tr, "loader.boot");
            core::SystemConfig cfg;
            cfg.numPages = 8192;
            cfg.mode = opt.mode;
            sys = std::make_unique<core::System>(cfg);
            sys->addComponent(std::make_unique<ServiceComponent>());
            for (int t = 0; t < kThreads; ++t)
                sys->addComponent(std::make_unique<WorkerComponent>(
                    "w" + std::to_string(t)));
            sys->boot();
        }
        out.setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    setLoaderMetrics(out, *sys, tr);
    const core::Cid svc = sys->cidOf("svc");
    const auto serve = sys->resolve<ServeFn>("svc", "serve");

    std::atomic<bool> go{false}, stop{false};
    std::atomic<int> ready{0};
    std::vector<Tracer> tracers(kThreads, Tracer(opt.trace));
    std::vector<WorkerResult> results(kThreads);
    std::vector<std::thread> pool;
    const std::vector<int> cpus = workerCpus();
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            if (!cpus.empty())
                pinTo(cpus[static_cast<std::size_t>(t)]);
            worker(*sys, sys->cidOf("w" + std::to_string(t)), svc, serve,
                   opt.seed * kThreads + static_cast<uint64_t>(t), go, stop,
                   ready, tracers[t], results[t]);
        });
    }
    while (ready.load() < kThreads)
        std::this_thread::yield();

    const CoreCounts c0 = CoreCounts::read(*sys);
    const int64_t start = nowNs();
    const int64_t deadline =
        start + static_cast<int64_t>(opt.seconds * 1e9);
    out.windows.start(start);
    go.store(true, std::memory_order_release);
    for (int64_t now = start; now < deadline; now = nowNs()) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min(RateWindows::kWindowNs, deadline - now)));
        uint64_t done = 0;
        for (const WorkerResult &r : results)
            done += r.done.load(std::memory_order_relaxed);
        out.windows.tick(nowNs(), done);
    }
    stop.store(true);
    for (auto &th : pool)
        th.join();
    out.measuredS = static_cast<double>(nowNs() - start) / 1e9;
    const CoreCounts c1 = CoreCounts::read(*sys);

    for (int t = 0; t < kThreads; ++t) {
        const WorkerResult &r = results[t];
        out.attempted += r.attempted;
        out.completed += r.completed;
        out.failed += r.attempted - r.completed;
        out.latency.merge(r.latency);
        for (const std::string &e : r.errors)
            if (out.errors.size() < 8)
                out.errors.push_back(e);
        tr.absorb(tracers[t]);
    }

    setCoreCounts(out, c1 - c0, out.attempted);
    const double n = static_cast<double>(out.attempted);
    out.set("core.xcall_us_p50", tr.stat("core.xcall").quantileNs(0.5) / 1e3);
    out.set("core.touch_us_per_op", tr.stat("core.touch").sumNs() / n / 1e3);
    out.set("core.window_restage_us_p50",
            tr.stat("core.window").quantileNs(0.5) / 1e3);
    return out;
}

} // namespace perfbench

namespace perfbench {

bool
selfTestXcall()
{
    core::SystemConfig cfg;
    cfg.numPages = 1024;
    core::System sys(cfg);
    sys.addComponent(std::make_unique<ServiceComponent>());
    sys.addComponent(std::make_unique<WorkerComponent>("w0"));
    sys.boot();
    const core::Cid me = sys.cidOf("w0");
    const core::Cid svc = sys.cidOf("svc");
    const auto serve = sys.resolve<ServeFn>("svc", "serve");
    Outcome o;
    sys.runAs(me, [&] {
        auto *req = reinterpret_cast<uint8_t *>(
            sys.monitor().allocPagesFor(me, 1, mem::PageType::kHeap).ptr);
        auto *reply = reinterpret_cast<uint64_t *>(
            sys.monitor().allocPagesFor(me, 1, mem::PageType::kHeap).ptr);
        std::memset(req, 0x33, kRequestBytes);
        libos::GrantWindow win(sys, libos::PeerSet{svc});
        win.stage(req, kRequestBytes);
        win.stage(reply, sizeof *reply);
        win.open(win.peers());
        serve(req, kRequestBytes, reply);
        sys.touch(reply, sizeof *reply, hw::Access::kRead);
        for (uint64_t got : {*reply, *reply ^ 1, uint64_t{0}}) {
            ++o.attempted;
            if (replyMatches(req, kRequestBytes, got))
                ++o.completed;
            else
                o.fail("xcall reply does not match the request checksum");
        }
        win.destroy();
    });
    return o.completed == 1 && o.failed == 2;
}

} // namespace perfbench
