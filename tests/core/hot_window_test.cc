/**
 * @file
 * Hot-window tests (paper §8's "window-specific tags" proposal):
 * dedicated MPK keys per window, eager tagging, PKRU-mask grants and
 * revocation, key exhaustion.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/system.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using testing::ToyComponent;
using testing::addToy;

class HotWindowTest : public ::testing::Test {
  protected:
    void boot()
    {
        SystemConfig cfg;
        cfg.numPages = 2048;
        sys = std::make_unique<System>(cfg);
        addToy(*sys, "owner");
        addToy(*sys, "peer");
        addToy(*sys, "spy");
        sys->boot();
        owner = sys->cidOf("owner");
        peer = sys->cidOf("peer");
        spy = sys->cidOf("spy");
        sys->runAs(owner, [&] {
            buf = static_cast<char *>(sys->heapAlloc(64));
            wid = sys->windowInit();
            sys->windowSetHot(wid);
            sys->windowAdd(wid, buf, 64);
            sys->windowOpen(wid, peer);
        });
    }

    std::unique_ptr<System> sys;
    Cid owner{}, peer{}, spy{};
    char *buf = nullptr;
    Wid wid{};
};

TEST_F(HotWindowTest, AclMemberAccessesWithoutTraps)
{
    boot();
    sys->stats().reset();
    sys->runAs(peer, [&] {
        for (int i = 0; i < 100; ++i)
            sys->touch(buf, 64, hw::Access::kWrite);
    });
    // The dedicated key is in the peer's PKRU: zero trap-and-map.
    EXPECT_EQ(sys->stats().traps(), 0u);
    EXPECT_EQ(sys->stats().retags(), 0u);
}

TEST_F(HotWindowTest, OwnerAndPeerInterleaveWithoutPingPong)
{
    boot();
    sys->stats().reset();
    for (int i = 0; i < 20; ++i) {
        sys->runAs(owner, [&] {
            sys->touch(buf, 64, hw::Access::kWrite);
        });
        sys->runAs(peer, [&] {
            sys->touch(buf, 64, hw::Access::kRead);
        });
    }
    EXPECT_EQ(sys->stats().retags(), 0u)
        << "hot windows must not retag per access";
}

TEST_F(HotWindowTest, NonAclCubicleStillFaults)
{
    boot();
    sys->runAs(spy, [&] {
        EXPECT_THROW(sys->touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST_F(HotWindowTest, CloseRevokesEagerly)
{
    boot();
    sys->runAs(peer,
               [&] { sys->touch(buf, 8, hw::Access::kRead); });
    sys->runAs(owner, [&] { sys->windowClose(wid, peer); });
    // Unlike lazy windows, hot windows revoke through the PKRU mask:
    // no owner reclaim needed before the peer faults.
    sys->runAs(peer, [&] {
        EXPECT_THROW(sys->touch(buf, 8, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST_F(HotWindowTest, DestroyReturnsPagesToOwner)
{
    boot();
    sys->runAs(owner, [&] {
        sys->windowDestroy(wid);
        EXPECT_NO_THROW(sys->touch(buf, 64, hw::Access::kWrite));
    });
    sys->runAs(peer, [&] {
        EXPECT_THROW(sys->touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST_F(HotWindowTest, AddSpanningForeignPageGrantsNothing)
{
    boot();
    // The spy's first heap chunk lands in the pages after the owner's,
    // so some owner heap page sits directly before a spy heap page.
    char *spy_buf = nullptr;
    sys->runAs(spy, [&] {
        spy_buf = static_cast<char *>(sys->heapAlloc(64));
        std::memset(spy_buf, 0x5a, 64);
    });
    hw::AddressSpace &space = sys->monitor().space();
    mem::PageMetaMap &meta = sys->monitor().pageMeta();
    std::size_t boundary = 0;
    for (std::size_t p = 1; p < space.numPages() && boundary == 0; ++p) {
        if (meta.at(p - 1).owner == owner && meta.at(p).owner == spy)
            boundary = p;
    }
    ASSERT_NE(boundary, 0u) << "no owner page directly before a spy page";
    const std::byte *owner_page = space.pageAt(boundary - 1);
    const std::byte *spy_page = space.pageAt(boundary);

    // windowAdd validates only the range's first page; the second one
    // belongs to the spy and must not take the hot key.
    sys->runAs(owner, [&] {
        const Wid hot = sys->windowInit();
        sys->windowSetHot(hot);
        sys->windowAdd(hot, owner_page, 2 * hw::kPageSize);
        sys->windowOpen(hot, peer);
    });
    sys->runAs(peer, [&] {
        EXPECT_NO_THROW(sys->touch(owner_page, 8, hw::Access::kRead));
        EXPECT_THROW(sys->touch(spy_page, 8, hw::Access::kRead),
                     hw::CubicleFault);
    });
    sys->runAs(owner, [&] {
        EXPECT_THROW(sys->touch(spy_page, 8, hw::Access::kRead),
                     hw::CubicleFault);
    });
    sys->runAs(spy, [&] {
        EXPECT_NO_THROW(sys->touch(spy_page, 8, hw::Access::kRead));
    });
}

TEST_F(HotWindowTest, OnlyOwnerCanPromote)
{
    boot();
    sys->runAs(peer, [&] {
        EXPECT_THROW(sys->windowSetHot(wid), WindowError);
    });
}

TEST(HotWindowKeys, ExhaustionIsReported)
{
    SystemConfig cfg;
    cfg.numPages = 4096;
    cfg.stackPages = 2;
    System sys(cfg);
    // 10 isolated cubicles consume keys 2..11; 0 monitor, 1 shared.
    for (int i = 0; i < 10; ++i)
        addToy(sys, "c" + std::to_string(i));
    sys.boot();
    sys.runAs(sys.cidOf("c0"), [&] {
        char *p = static_cast<char *>(sys.heapAlloc(32));
        // Keys 12..15 remain: four hot windows fit, the fifth throws.
        for (int i = 0; i < 4; ++i) {
            const Wid w = sys.windowInit();
            sys.windowSetHot(w);
            sys.windowAdd(w, p, 32);
        }
        const Wid w5 = sys.windowInit();
        EXPECT_THROW(sys.windowSetHot(w5), WindowError);
    });
}

} // namespace
} // namespace cubicleos::core
