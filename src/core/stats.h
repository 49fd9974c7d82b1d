/**
 * @file
 * Runtime statistics: cross-cubicle call edges, traps, retags.
 *
 * The per-edge call counters regenerate the annotations on the component
 * graphs of Fig. 5 (NGINX) and Fig. 8 (SQLite).
 *
 * Thread-safety: every counter is a relaxed atomic. CrossCallGuard
 * bumps countCall and the wrpkru counter on every cross-cubicle call
 * from any thread, and the trap-and-map handler runs concurrently
 * across threads, so the counters must not serialise the hot paths:
 * relaxed increments add no ordering and no locks, mirroring per-CPU
 * event counters. Readers (benches, tests) see values at least as
 * fresh as the last synchronisation point (thread join, lock release).
 */

#ifndef CUBICLEOS_CORE_STATS_H_
#define CUBICLEOS_CORE_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ids.h"
#include "hw/relaxed_atomic.h"

/**
 * The counter table, X(name, doc) per counter: `name` is the Stats::Id
 * enumerator and the getter, `doc` what one increment means.
 */
#define CUBICLE_STATS_COUNTERS(X)                                            \
    X(traps, "memory-protection traps taken (trap-and-map entries)")         \
    X(retags, "retag operations (one pkey_mprotect call each)")              \
    X(retagPages, "pages moved by those retags")                             \
    X(prestages, "eager retags for a peer at window open, not at fault")     \
    X(ringFlushes, "submission-ring flushes (one PKRU switch each)")         \
    X(ringCalls, "queued cross-calls those flushes executed")                \
    X(wrpkrus, "PKRU register writes")                                       \
    X(windowOps, "window API operations (init/add/open/close/...)")          \
    X(violations, "faults the monitor could not resolve (isolation)")        \
    X(grantCacheHits, "faults absorbed by a thread's grant cache (TLB)")     \
    X(tagHits, "cross-calls into a virtual-key cubicle already bound")       \
    X(tagMisses, "cross-calls that found their callee parked")               \
    X(evictions, "cubicles swept to the parked tag")                         \
    X(faultIns, "parked cubicles re-bound to a physical tag")                \
    X(faultInPages, "pages restored from the parked tag by fault-ins")       \
    X(destroys, "cubicles destroyed (lifecycle subsystem)")                  \
    X(restarts, "cubicles relaunched through Monitor::restartCubicle")       \
    X(reclaimedPages, "pages destroyed cubicles returned to the allocator")  \
    X(unwoundCalls, "cross-calls unwound with kPeerFaultVerdict")            \
    X(imagesVerified, "load-time verifier runs over a component image")      \
    X(verifierBytesScanned, "image bytes those runs scanned")                \
    X(verifierBytesDecoded, "bytes the linear sweep decoded")                \
    X(verifierInsns, "instructions the linear sweep decoded")                \
    X(verifierRejected, "rejecting verifier findings")                       \
    X(verifierReported, "report-only verifier findings")                     \
    X(lintRuns, "isolation-lint runs over the wiring")                       \
    X(lintFindings, "findings those lint runs yielded")                      \
    X(auditRuns, "least-privilege audit runs")                               \
    X(auditFindings, "findings those audit runs yielded")                    \
    X(verifyCacheHits, "loads served from the verifier's image-hash cache")  \
    X(verifyCacheMisses, "loads that ran the sweep + CFG walk for real")     \
    X(dataCopies, "payload memcpys on the data path")                        \
    X(dataCopyBytes, "bytes those payload memcpys moved")                    \
    X(zeroCopySends, "TCP segments sent straight from a borrowed span")      \
    X(zeroCopyBytes, "payload bytes those zero-copy segments carried")

namespace cubicleos::core {

/** One (caller → callee) edge with its call count. */
struct CallEdge {
    Cid caller;
    Cid callee;
    uint64_t count;
};

/** Aggregated runtime counters for one System. */
class Stats {
  public:
    /** One scalar counter; see CUBICLE_STATS_COUNTERS. */
    enum class Id : std::size_t {
#define CUBICLE_STATS_ID(name, doc) name,
        CUBICLE_STATS_COUNTERS(CUBICLE_STATS_ID)
#undef CUBICLE_STATS_ID
    };
    /** Number of scalar counters. */
    static constexpr std::size_t kCount = 0
#define CUBICLE_STATS_ONE(name, doc) +1
        CUBICLE_STATS_COUNTERS(CUBICLE_STATS_ONE)
#undef CUBICLE_STATS_ONE
        ;

    Stats() : edgeMatrix_(kMaxCubicles * kMaxCubicles) {}

    Stats(const Stats &) = delete;
    Stats &operator=(const Stats &) = delete;

    /** Adds @p n to one counter: a relaxed fetch_add at a fixed slot. */
    void add(Id id, uint64_t n = 1)
    {
        c_[static_cast<std::size_t>(id)].fetchAdd(n);
    }

#define CUBICLE_STATS_GETTER(name, doc)                                      \
    uint64_t name() const { return c_[static_cast<std::size_t>(Id::name)]; }
    CUBICLE_STATS_COUNTERS(CUBICLE_STATS_GETTER)
#undef CUBICLE_STATS_GETTER

    /**
     * Records one cross-cubicle call on the (caller, callee) edge.
     * A flat-matrix increment: cheap enough to keep on in every mode.
     * @throws std::out_of_range when either cubicle ID is outside the
     *         ACL/matrix width (kMaxCubicles), rather than aliasing
     *         onto another cubicle's edge counters.
     */
    void countCall(Cid caller, Cid callee)
    {
        edgeMatrix_[matrixIndex(caller, callee)].fetchAdd(1);
    }

    /**
     * One retag covering @p pages pages; retagPages()/retags() is the
     * range-granular handler's amortisation (1 per page, 512 per 2 MiB).
     */
    void countRetag(uint64_t pages = 1)
    {
        add(Id::retags);
        add(Id::retagPages, pages);
    }
    /** One ring flush executing @p calls queued cross-calls. */
    void countRingFlush(uint64_t calls)
    {
        add(Id::ringFlushes);
        add(Id::ringCalls, calls);
    }
    /** One fault-in restoring @p pages from the parked tag. */
    void countFaultIn(uint64_t pages)
    {
        add(Id::faultIns);
        add(Id::faultInPages, pages);
    }
    /** One cubicle destroyed, returning @p pages to the allocator. */
    void countDestroy(uint64_t pages)
    {
        add(Id::destroys);
        add(Id::reclaimedPages, pages);
    }
    /** Records one load-time verifier run over a component image. */
    void countVerifiedImage(uint64_t imageBytes, uint64_t decodedBytes,
                            uint64_t insns, uint64_t rejecting,
                            uint64_t reportOnly)
    {
        add(Id::imagesVerified);
        add(Id::verifierBytesScanned, imageBytes);
        add(Id::verifierBytesDecoded, decodedBytes);
        add(Id::verifierInsns, insns);
        add(Id::verifierRejected, rejecting);
        add(Id::verifierReported, reportOnly);
    }
    /** Records one isolation-lint run yielding @p findings findings. */
    void countLintRun(uint64_t findings)
    {
        add(Id::lintRuns);
        add(Id::lintFindings, findings);
    }
    /** Records one least-privilege audit run yielding @p findings. */
    void countAuditRun(uint64_t findings)
    {
        add(Id::auditRuns);
        add(Id::auditFindings, findings);
    }
    /** One payload memcpy of @p bytes (FS block, header, send queue). */
    void countDataCopy(uint64_t bytes)
    {
        add(Id::dataCopies);
        add(Id::dataCopyBytes, bytes);
    }
    /** @p segs TCP segments carrying @p bytes from a borrowed span. */
    void countZeroCopySend(uint64_t bytes, uint64_t segs = 1)
    {
        add(Id::zeroCopySends, segs);
        add(Id::zeroCopyBytes, bytes);
    }

    /**
     * Physical-tag hit rate over all cross-calls into virtual-key
     * cubicles, in percent; 100 when no such call happened yet.
     */
    double tagHitRatePercent() const
    {
        const uint64_t hits = tagHits();
        const uint64_t misses = tagMisses();
        if (hits + misses == 0)
            return 100.0;
        return 100.0 * static_cast<double>(hits) /
               static_cast<double>(hits + misses);
    }

    /** Returns the call count on one edge. */
    uint64_t callsOnEdge(Cid caller, Cid callee) const
    {
        return edgeMatrix_[matrixIndex(caller, callee)];
    }

    /** Total cross-cubicle calls over all edges. */
    uint64_t totalCalls() const
    {
        uint64_t n = 0;
        for (const auto &v : edgeMatrix_)
            n += v;
        return n;
    }

    /** All edges with non-zero counts. */
    std::vector<CallEdge> edges() const
    {
        std::vector<CallEdge> out;
        for (int c = 0; c < kMaxCubicles; ++c) {
            for (int e = 0; e < kMaxCubicles; ++e) {
                uint64_t v = edgeMatrix_[c * kMaxCubicles + e];
                if (v > 0) {
                    out.push_back(CallEdge{static_cast<Cid>(c),
                                           static_cast<Cid>(e), v});
                }
            }
        }
        return out;
    }

    /** Resets every counter (benchmark warm-up boundary). */
    void reset()
    {
        for (auto &v : edgeMatrix_)
            v = 0;
        for (auto &v : c_)
            v = 0;
    }

  private:
    static std::size_t matrixIndex(Cid caller, Cid callee)
    {
        if (caller >= static_cast<Cid>(kMaxCubicles) ||
            callee >= static_cast<Cid>(kMaxCubicles)) {
            throw std::out_of_range(
                "Stats: cubicle id outside the " +
                std::to_string(kMaxCubicles) +
                "-wide call-edge matrix (caller " +
                std::to_string(caller) + ", callee " +
                std::to_string(callee) + ")");
        }
        return static_cast<std::size_t>(caller) * kMaxCubicles + callee;
    }

    using Counter = hw::RelaxedAtomic<uint64_t>;

    std::vector<Counter> edgeMatrix_;
    std::array<Counter, kCount> c_;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_STATS_H_
