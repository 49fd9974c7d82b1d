/**
 * @file
 * The two HTTP workloads, http_tenants and http_bulk.
 *
 * Both drive networked deployments through the public API
 * (addLibosComponents, NginxComponent, finishBoot, resolve("...",
 * "nginx_poll")) with a host TcpIpStack on the FrameChannel, not
 * through httpd::HttpHarness::fetch, so that the time spent inside the
 * servers' poll cross-calls and the time of the host client are timed
 * apart. One client, one outstanding request, one simulated clock: a
 * closed loop.
 */

#include <cstdlib>
#include <memory>

#include "apps/httpd/httpd.h"
#include "libos/lwip.h"
#include "libos/netdev.h"
#include "libos/stack.h"
#include "libos/tcpip.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace cubicleos;

/** One server cubicle of a deployment (plus its request log, if any). */
struct ServerSpec {
    std::string name = "nginx";
    uint16_t port = 80;
    bool sendfile = false;
    std::string docroot; ///< non-empty: multi-tenant instance
    std::string log;     ///< tenant request-log cubicle
};

struct Fetch {
    int status = 0;
    std::size_t contentLength = 0;
    std::string body;
};

/**
 * A booted Fig. 5 network stack with one or more nginx servers, and
 * the host-side TCP client on its wire.
 */
class WebDeployment {
  public:
    WebDeployment(const core::SystemConfig &cfg,
                  const std::vector<ServerSpec> &servers)
    {
        sys_ = std::make_unique<core::System>(cfg);
        wire_ = std::make_unique<libos::FrameChannel>(&sys_->clock());
        libos::StackOptions so;
        so.withNet = true;
        so.wire = wire_.get();
        libos::addLibosComponents(*sys_, so);
        for (const ServerSpec &s : servers) {
            std::unique_ptr<httpd::NginxComponent> srv =
                s.docroot.empty()
                ? std::make_unique<httpd::NginxComponent>(s.port,
                                                          s.sendfile)
                : std::make_unique<httpd::NginxComponent>(
                      s.name, s.port, s.sendfile, s.docroot, s.log);
            nginx_.push_back(static_cast<httpd::NginxComponent *>(
                &sys_->addComponent(std::move(srv))));
            if (!s.log.empty()) {
                logs_.push_back(static_cast<httpd::TenantLogComponent *>(
                    &sys_->addComponent(
                        std::make_unique<httpd::TenantLogComponent>(
                            s.log))));
            }
        }
        libos::finishBoot(*sys_);
        for (const ServerSpec &s : servers) {
            cids_.push_back(sys_->cidOf(s.name));
            polls_.push_back(
                sys_->resolve<int64_t(uint64_t)>(s.name, "nginx_poll"));
            ports_.push_back(s.port);
        }
        lwip_ = dynamic_cast<libos::LwipComponent *>(
            &sys_->componentAt(sys_->cidOf("lwip")));
        libos::TcpConfig ccfg;
        ccfg.ipAddr = 0x0A000002;
        client_ = std::make_unique<libos::TcpIpStack>(ccfg);
    }

    /** Creates server @p s's private docroot directory. */
    void makeDir(std::size_t s, const std::string &dir)
    {
        nginx_[s]->makeDir(dir);
    }

    /** Creates @p path on server @p s (full RAMFS path). */
    void createFile(std::size_t s, const std::string &path,
                    std::size_t size)
    {
        nginx_[s]->createFile(path, size);
    }

    /** GET @p path from server @p s over a fresh connection. */
    Fetch fetch(std::size_t s, const std::string &path, Tracer &tr)
    {
        int fd = -1;
        {
            Tracer::Scope c(tr, "loadgen.client");
            fd = client_->socket();
            client_->connect(fd, 0x0A000001, ports_[s]);
        }
        const std::string request =
            "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
        bool sent = false;
        std::string response;
        std::size_t headerEnd = std::string::npos;
        Fetch res;
        for (int round = 0; round < kMaxRounds; ++round) {
            pump(s, tr);
            Tracer::Scope c(tr, "loadgen.client");
            if (!sent && client_->isEstablished(fd)) {
                client_->send(fd, request.data(), request.size());
                sent = true;
            }
            const int64_t n = client_->recv(fd, buf_, sizeof buf_);
            if (n > 0)
                response.append(buf_, static_cast<std::size_t>(n));
            else if (n == 0)
                break; // orderly close
            if (headerEnd == std::string::npos) {
                headerEnd = response.find("\r\n\r\n");
                if (headerEnd != std::string::npos) {
                    const auto cl = response.find("Content-Length: ");
                    if (cl != std::string::npos && cl < headerEnd)
                        res.contentLength = std::strtoull(
                            response.c_str() + cl + 16, nullptr, 10);
                    response.reserve(headerEnd + 4 + res.contentLength);
                }
            }
            if (headerEnd != std::string::npos &&
                response.size() >= headerEnd + 4 + res.contentLength)
                break;
        }
        {
            Tracer::Scope c(tr, "loadgen.client");
            client_->close(fd);
        }
        for (int i = 0; i < kDrainRounds; ++i)
            pump(s, tr); // FIN exchange
        if (response.compare(0, 9, "HTTP/1.1 ") == 0)
            res.status = std::atoi(response.c_str() + 9);
        if (headerEnd != std::string::npos)
            res.body = response.substr(headerEnd + 4);
        return res;
    }

    core::System &sys() { return *sys_; }
    const libos::TcpStats &serverTcp() const { return lwip_->tcpStats(); }
    uint64_t polls() const { return polls_done_; }
    uint64_t loggedRequests(std::size_t t) const
    {
        return logs_[t]->totalRequests();
    }

  private:
    static constexpr int kMaxRounds = 1'000'000;
    static constexpr int kDrainRounds = 5;

    /** One event-loop round: 1 ms of simulated time, one poll. */
    void pump(std::size_t s, Tracer &tr)
    {
        now_ += 1'000'000;
        {
            Tracer::Scope c(tr, "loadgen.client");
            client_->tick(now_);
            client_->pollOutput([&](const uint8_t *p, std::size_t n) {
                wire_->hostSend(libos::FrameChannel::Frame(p, p + n));
            });
        }
        {
            Tracer::Scope p(tr, "httpd.poll");
            sys_->runAs(cids_[s], [&] { polls_[s](now_); });
        }
        ++polls_done_;
        Tracer::Scope c(tr, "loadgen.client");
        while (auto frame = wire_->hostRecv())
            client_->input(frame->data(), frame->size());
    }

    std::unique_ptr<core::System> sys_;
    std::unique_ptr<libos::FrameChannel> wire_;
    std::unique_ptr<libos::TcpIpStack> client_;
    std::vector<httpd::NginxComponent *> nginx_;
    std::vector<httpd::TenantLogComponent *> logs_;
    std::vector<core::Cid> cids_;
    std::vector<core::CrossFn<int64_t(uint64_t)>> polls_;
    std::vector<uint16_t> ports_;
    libos::LwipComponent *lwip_ = nullptr;
    uint64_t now_ = 0;
    uint64_t polls_done_ = 0;
    char buf_[16384];
};

/** One file of a served set. */
struct FileSpec {
    std::string path;
    std::size_t size = 0;
    uint64_t hash = 0; ///< body digest from the first fetch
};

/**
 * Checks one response against the file it should carry: status 200,
 * the file's length, the content property, and — once @p f.hash is
 * known — the bytes of every earlier fetch of the same file.
 * @return an empty string, or why the response is wrong.
 */
std::string
checkFetch(const Fetch &r, FileSpec &f)
{
    if (r.status != 200)
        return f.path + ": status " + std::to_string(r.status);
    if (r.body.size() != f.size || r.contentLength != f.size)
        return f.path + ": length " + std::to_string(r.body.size()) +
               " != " + std::to_string(f.size);
    const uint64_t h = fnv1a(r.body);
    if (f.hash == 0) {
        if (!bodyPropertyHolds(r.body))
            return f.path + ": body bytes violate the content pattern";
        f.hash = h;
    } else if (h != f.hash) {
        return f.path + ": body differs from an earlier fetch";
    }
    return {};
}

/**
 * A size drawn log-uniformly from stratum @p i of @p n equal strata of
 * [lo, hi] (log scale).
 */
std::size_t
stratum(Rng &rng, int i, int n, double lo, double hi)
{
    const double q = (i + rng.unit()) / n;
    return static_cast<std::size_t>(
        std::exp(std::log(lo) + q * (std::log(hi) - std::log(lo))));
}

/** Per-layer metrics both HTTP workloads share. */
struct HttpLayerWindow {
    CoreCounts core;
    uint64_t polls = 0, segs = 0, copyBytes = 0, retransmits = 0;

    static HttpLayerWindow read(const std::vector<WebDeployment *> &deps)
    {
        HttpLayerWindow w;
        for (WebDeployment *d : deps) {
            w.core += CoreCounts::read(d->sys());
            w.polls += d->polls();
            const libos::TcpStats &t = d->serverTcp();
            w.segs += t.segsIn + t.segsOut;
            w.copyBytes += t.payloadCopyBytes;
            w.retransmits += t.retransmits;
        }
        return w;
    }
};

void
setHttpLayers(Outcome &out, const HttpLayerWindow &a,
              const HttpLayerWindow &b, uint64_t ops, const Tracer &tr,
              uint64_t measuredOps)
{
    setCoreCounts(out, b.core - a.core, ops);
    const double n = static_cast<double>(ops);
    out.set("httpd.polls_per_op", static_cast<double>(b.polls - a.polls) / n);
    out.set("tcpip.segs_per_op", static_cast<double>(b.segs - a.segs) / n);
    out.set("tcpip.payload_copy_bytes_per_op",
            static_cast<double>(b.copyBytes - a.copyBytes) / n);
    out.set("tcpip.retransmits",
            static_cast<double>(b.retransmits - a.retransmits));
    const double m = static_cast<double>(measuredOps ? measuredOps : 1);
    out.set("httpd.server_us_per_op",
            tr.stat("httpd.poll").sumNs() / m / 1e3);
    out.set("loadgen.client_us_per_op",
            tr.stat("loadgen.client").sumNs() / m / 1e3);
}

/**
 * The measured phase shared by both HTTP workloads: rounds of
 * operations until opt.seconds of host time have passed. @p round
 * issues one round's operations through @p op, which times one fetch
 * and checks it outside the timed interval.
 */
template <typename Round>
void
measure(const Options &opt, Outcome &out, Tracer &tr,
        const std::vector<WebDeployment *> &deps, Round &&round)
{
    HttpLayerWindow before = HttpLayerWindow::read(deps);
    HttpLayerWindow windowEnd;
    int64_t checkNs = 0;
    auto op = [&](WebDeployment &d, std::size_t server,
                  const std::string &urlPath, FileSpec &f) {
        tr.setOp(++out.attempted); // op 0 is set-up
        const int64_t t0 = nowNs();
        Fetch r;
        {
            Tracer::Scope s(tr, "http.get");
            r = d.fetch(server, urlPath, tr);
        }
        const int64_t t1 = nowNs();
        out.latency.add(t1 - t0);
        const std::string err = checkFetch(r, f);
        if (err.empty())
            ++out.completed;
        else
            out.fail(err);
        if (out.attempted == kCountWindowOps)
            windowEnd = HttpLayerWindow::read(deps);
        const int64_t t2 = nowNs();
        checkNs += t2 - t1;
        out.windows.tick(t2, out.completed, checkNs);
    };
    const int64_t start = nowNs();
    out.windows.start(start);
    const int64_t deadline =
        start + static_cast<int64_t>(opt.seconds * 1e9);
    while (nowNs() < deadline || out.attempted < kCountWindowOps)
        round(op);
    out.measuredS = static_cast<double>(nowNs() - start - checkNs) / 1e9;
    setHttpLayers(out, before, windowEnd, kCountWindowOps, tr,
                  out.attempted);
}

} // namespace

// ---------------------------------------------------------------------
// http_tenants: 26 tenants, 64 cubicles on 16 MPK tags
// ---------------------------------------------------------------------

Outcome
runHttpTenants(const Options &opt, Tracer &tr)
{
    constexpr int kTenants = 26;
    constexpr int kFilesPerTenant = 16;
    constexpr int kBurst = 4;
    constexpr double kZipfS = 1.0;

    // Every tenant serves the same size mix — one file per stratum of
    // a log-uniform grid over 256 B..16 KiB, with seeded jitter inside
    // the stratum — so which tenants the seed makes popular does not
    // change the bytes per request.
    Rng rng(opt.seed);
    std::vector<std::vector<FileSpec>> files(kTenants);
    for (auto &tf : files)
        for (int i = 0; i < kFilesPerTenant; ++i)
            tf.push_back({"/f" + std::to_string(i) + ".html",
                          stratum(rng, i, kFilesPerTenant, 256, 16384), 0});
    // Skewed tenant popularity: Zipf over a seeded ranking.
    std::vector<int> rank(kTenants);
    for (int t = 0; t < kTenants; ++t)
        rank[t] = t;
    for (int t = kTenants - 1; t > 0; --t)
        std::swap(rank[t], rank[rng.below(t + 1)]);
    std::vector<double> cdf(kTenants);
    double acc = 0;
    for (int r = 0; r < kTenants; ++r)
        cdf[r] = acc += 1.0 / std::pow(r + 1, kZipfS);
    auto pickTenant = [&] {
        const double u = rng.unit() * acc;
        int r = 0;
        while (r + 1 < kTenants && cdf[r] < u)
            ++r;
        return rank[r];
    };

    core::SystemConfig cfg;
    cfg.numPages = 65536;
    cfg.mode = opt.mode;
    cfg.virtualizeTags = true;
    cfg.physTagBudget = hw::kNumPhysPkeys;
    cfg.dynamicTags = 4;
    std::vector<ServerSpec> servers;
    for (int t = 0; t < kTenants; ++t) {
        ServerSpec s;
        s.name = "tenant" + std::to_string(t);
        s.port = static_cast<uint16_t>(8000 + t);
        s.docroot = "/" + s.name;
        s.log = "tlog" + std::to_string(t);
        servers.push_back(s);
    }

    Outcome out;
    std::unique_ptr<WebDeployment> dep;
    for (int i = 0; i < kSetups; ++i) {
        dep.reset();
        coldLoaderCaches();
        const int64_t t0 = nowNs();
        {
            Tracer::Scope boot(tr, "loader.boot");
            dep = std::make_unique<WebDeployment>(cfg, servers);
        }
        {
            Tracer::Scope load(tr, "loader.load");
            for (std::size_t t = 0; t < kTenants; ++t) {
                dep->makeDir(t, servers[t].docroot);
                for (const FileSpec &f : files[t])
                    dep->createFile(t, servers[t].docroot + f.path,
                                    f.size);
            }
        }
        out.setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    setLoaderMetrics(out, dep->sys(), tr);

    // Warm-up: every file once; fixes each file's reference digest.
    std::vector<uint64_t> sent(kTenants, 0);
    tr.setLive(false);
    for (int t = 0; t < kTenants; ++t) {
        for (FileSpec &f : files[t]) {
            const std::string err = checkFetch(dep->fetch(t, f.path, tr), f);
            ++sent[t];
            if (!err.empty())
                out.wrong("warm-up: " + err);
        }
    }
    tr.setLive(true);

    measure(opt, out, tr, {dep.get()}, [&](auto &op) {
        const int t = pickTenant();
        for (int b = 0; b < kBurst; ++b) {
            FileSpec &f = files[t][rng.below(kFilesPerTenant)];
            op(*dep, static_cast<std::size_t>(t), f.path, f);
            ++sent[t];
        }
    });

    for (int t = 0; t < kTenants; ++t) {
        if (dep->loggedRequests(t) != sent[t])
            out.wrong("tenant" + std::to_string(t) + " log counts " +
                      std::to_string(dep->loggedRequests(t)) +
                      " requests, benchmark sent " +
                      std::to_string(sent[t]));
    }
    return out;
}

// ---------------------------------------------------------------------
// http_bulk: copy path vs zero-copy sendfile, large files
// ---------------------------------------------------------------------

Outcome
runHttpBulk(const Options &opt, Tracer &tr)
{
    constexpr int kFiles = 64;

    // One file per stratum of a log-uniform grid over 32 KiB..4 MiB:
    // every seed serves the same size mix, so the seed moves the
    // request order, not the bytes per round. Sizes are dense enough
    // that the median falls among neighbours of similar size.
    Rng rng(opt.seed);
    std::vector<FileSpec> files;
    for (int i = 0; i < kFiles; ++i)
        files.push_back({"/b" + std::to_string(i) + ".bin",
                         stratum(rng, i, kFiles, 32 << 10, 4 << 20), 0});
    std::vector<int> order(kFiles);
    for (int i = 0; i < kFiles; ++i)
        order[i] = i;

    core::SystemConfig cfg;
    cfg.numPages = 32768;
    cfg.mode = opt.mode;
    ServerSpec copySrv, zcSrv;
    zcSrv.sendfile = true;

    Outcome out;
    std::unique_ptr<WebDeployment> copy, zc;
    for (int i = 0; i < kSetups; ++i) {
        copy.reset();
        zc.reset();
        coldLoaderCaches();
        const int64_t t0 = nowNs();
        {
            Tracer::Scope boot(tr, "loader.boot");
            copy = std::make_unique<WebDeployment>(cfg, std::vector{copySrv});
            zc = std::make_unique<WebDeployment>(cfg, std::vector{zcSrv});
        }
        {
            Tracer::Scope load(tr, "loader.load");
            for (const FileSpec &f : files) {
                copy->createFile(0, f.path, f.size);
                zc->createFile(0, f.path, f.size);
            }
        }
        out.setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    setLoaderMetrics(out, copy->sys(), tr);

    // Warm-up: every file from both deployments. The first fetch
    // (copy path) fixes the digest; the sendfile fetch must match it.
    tr.setLive(false);
    for (FileSpec &f : files) {
        for (WebDeployment *d : {copy.get(), zc.get()}) {
            const std::string err = checkFetch(d->fetch(0, f.path, tr), f);
            if (!err.empty())
                out.wrong("warm-up: " + err);
        }
    }
    tr.setLive(true);

    // One round: every file once in a seeded order, each over the copy
    // path and then over sendfile.
    measure(opt, out, tr, {copy.get(), zc.get()}, [&](auto &op) {
        for (int i = kFiles - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
        for (int i : order) {
            op(*copy, 0, files[i].path, files[i]);
            op(*zc, 0, files[i].path, files[i]);
        }
    });
    return out;
}

} // namespace perfbench

namespace perfbench {

bool
selfTestHttp()
{
    Tracer tr(false);
    core::SystemConfig cfg;
    cfg.numPages = 8192;
    WebDeployment copy(cfg, {ServerSpec{}});
    ServerSpec zcSpec;
    zcSpec.sendfile = true;
    WebDeployment zc(cfg, {zcSpec});
    FileSpec f{"/s.bin", 40000, 0};
    copy.createFile(0, f.path, f.size);
    zc.createFile(0, f.path, f.size);

    Outcome o;
    auto feed = [&](const Fetch &r, FileSpec &spec) {
        ++o.attempted;
        const std::string err = checkFetch(r, spec);
        if (err.empty())
            ++o.completed;
        else
            o.fail(err);
    };
    const Fetch good = copy.fetch(0, f.path, tr);
    feed(good, f);                   // first fetch: pattern, digest
    feed(zc.fetch(0, f.path, tr), f); // sendfile matches the copy path

    Fetch flipped = good; // one corrupted body byte
    flipped.body[1234] ^= 1;
    feed(flipped, f);
    FileSpec fresh{f.path, f.size, 0}; // corrupted before any digest
    Fetch pattern = good;
    pattern.body[7] = static_cast<char>('A' + (7 + 5) % 26);
    feed(pattern, fresh);
    Fetch truncated = good;
    truncated.body.pop_back();
    feed(truncated, f);
    feed(copy.fetch(0, "/missing.bin", tr), f); // 404
    return o.completed == 2 && o.failed == 4;
}

} // namespace perfbench
