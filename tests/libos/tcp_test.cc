/**
 * @file
 * Unit tests for the TCP/IP stack (LWIP stand-in), run stand-alone with
 * two endpoints connected by direct packet exchange.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "libos/tcpip.h"

namespace cubicleos::libos {
namespace {

/** Two stacks wired back-to-back with manual pumping. */
class TcpPair : public ::testing::Test {
  protected:
    TcpPair()
    {
        TcpConfig a, b;
        a.ipAddr = 0x0A000001;
        b.ipAddr = 0x0A000002;
        alice = std::make_unique<TcpIpStack>(a);
        bob = std::make_unique<TcpIpStack>(b);
    }

    /** Moves packets both ways until quiescent. Returns iterations. */
    int pump(int max_rounds = 200)
    {
        int rounds = 0;
        bool moved = true;
        while (moved && rounds < max_rounds) {
            moved = false;
            alice->tick(now);
            bob->tick(now);
            alice->pollOutput([&](const uint8_t *p, std::size_t n) {
                bob->input(p, n);
                moved = true;
            });
            bob->pollOutput([&](const uint8_t *p, std::size_t n) {
                alice->input(p, n);
                moved = true;
            });
            now += 1'000'000; // 1 ms per round
            ++rounds;
        }
        return rounds;
    }

    /** Establishes bob:port listener and a connection from alice. */
    void establish(uint16_t port, int *afd, int *bfd)
    {
        const int lfd = bob->socket();
        ASSERT_EQ(bob->bind(lfd, port), kNetOk);
        ASSERT_EQ(bob->listen(lfd, 8), kNetOk);
        *afd = alice->socket();
        ASSERT_EQ(alice->connect(*afd, 0x0A000002, port), kNetOk);
        pump();
        *bfd = bob->accept(lfd);
        ASSERT_GE(*bfd, 0);
        EXPECT_TRUE(alice->isEstablished(*afd));
    }

    std::unique_ptr<TcpIpStack> alice, bob;
    uint64_t now = 0;
};

TEST_F(TcpPair, HandshakeEstablishesBothEnds)
{
    int afd, bfd;
    establish(8080, &afd, &bfd);
    EXPECT_TRUE(bob->isEstablished(bfd));
}

TEST_F(TcpPair, ConnectToClosedPortRefused)
{
    const int afd = alice->socket();
    ASSERT_EQ(alice->connect(afd, 0x0A000002, 9999), kNetOk);
    pump();
    char c;
    EXPECT_EQ(alice->recv(afd, &c, 1), kNetRefused);
    EXPECT_FALSE(alice->isEstablished(afd));
}

TEST_F(TcpPair, SmallDataBothDirections)
{
    int afd, bfd;
    establish(80, &afd, &bfd);

    EXPECT_EQ(alice->send(afd, "ping", 4), 4);
    pump();
    char buf[16] = {};
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), 4);
    EXPECT_EQ(std::memcmp(buf, "ping", 4), 0);

    EXPECT_EQ(bob->send(bfd, "pong!", 5), 5);
    pump();
    EXPECT_EQ(alice->recv(afd, buf, sizeof(buf)), 5);
    EXPECT_EQ(std::memcmp(buf, "pong!", 5), 0);
}

TEST_F(TcpPair, RecvOnEmptyConnectionWouldBlock)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    char c;
    EXPECT_EQ(alice->recv(afd, &c, 1), kNetAgain);
}

TEST_F(TcpPair, LargeTransferRespectsWindow)
{
    int afd, bfd;
    establish(80, &afd, &bfd);

    // 1 MiB transfer: far larger than the 64 KiB buffers, so progress
    // requires repeated window updates (the Fig. 7 dynamic).
    constexpr std::size_t kTotal = 1 << 20;
    std::vector<uint8_t> out(kTotal);
    for (std::size_t i = 0; i < kTotal; ++i)
        out[i] = static_cast<uint8_t>(i * 13);

    std::size_t sent = 0, rcvd = 0;
    std::vector<uint8_t> in(kTotal);
    int idle = 0;
    while (rcvd < kTotal && idle < 100) {
        if (sent < kTotal) {
            const int64_t n =
                alice->send(afd, out.data() + sent, kTotal - sent);
            if (n > 0)
                sent += static_cast<std::size_t>(n);
        }
        pump(4);
        const int64_t n =
            bob->recv(bfd, in.data() + rcvd, kTotal - rcvd);
        if (n > 0) {
            rcvd += static_cast<std::size_t>(n);
            idle = 0;
        } else {
            ++idle;
        }
    }
    ASSERT_EQ(rcvd, kTotal);
    EXPECT_EQ(std::memcmp(in.data(), out.data(), kTotal), 0);
    // Segments must respect the MSS.
    EXPECT_GE(bob->stats().segsIn, kTotal / 1460);
}

TEST_F(TcpPair, SenderBlockedByFullSendBuffer)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    std::vector<uint8_t> big(256 * 1024, 0x42);
    // Without pumping, at most sndBuf bytes can be queued.
    int64_t queued = alice->send(afd, big.data(), big.size());
    EXPECT_EQ(queued, static_cast<int64_t>(alice->config().sndBuf));
    EXPECT_EQ(alice->send(afd, big.data(), big.size()), kNetAgain);
}

TEST_F(TcpPair, OrderlyCloseDeliversEof)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    alice->send(afd, "bye", 3);
    alice->close(afd);
    pump();
    char buf[8];
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), 3);
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), 0) << "EOF after FIN";
    bob->close(bfd);
    pump();
}

TEST_F(TcpPair, ActiveCloserAcksPeerFinSoNothingRetransmits)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    alice->close(afd); // client closes first
    pump();
    char buf[8];
    ASSERT_EQ(bob->recv(bfd, buf, sizeof(buf)), 0) << "EOF after FIN";
    bob->close(bfd); // server closes on EOF
    pump();

    now += 2 * alice->config().rtoNs;
    pump();
    EXPECT_EQ(alice->stats().retransmits, 0u);
    EXPECT_EQ(bob->stats().retransmits, 0u);
    EXPECT_EQ(alice->recv(afd, buf, sizeof(buf)), kNetBadFd) << "slot free";
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), kNetBadFd) << "slot free";
}

TEST_F(TcpPair, ChecksumCorruptionDropsSegment)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    alice->send(afd, "data", 4);

    // Corrupt the first data segment in flight.
    bool corrupted = false;
    alice->tick(now);
    alice->pollOutput([&](const uint8_t *p, std::size_t n) {
        std::vector<uint8_t> pkt(p, p + n);
        if (!corrupted && n > 40) {
            pkt[40] ^= 0xFF; // flip the first payload byte
            corrupted = true;
        }
        bob->input(pkt.data(), pkt.size());
    });
    ASSERT_TRUE(corrupted);
    char buf[8];
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), kNetAgain);
    EXPECT_GE(bob->stats().checksumDrops, 1u);

    // The retransmission timer recovers the loss.
    now += 300'000'000;
    pump();
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), 4);
    EXPECT_GE(alice->stats().retransmits, 1u);
}

TEST_F(TcpPair, LostSynIsRetransmitted)
{
    const int lfd = bob->socket();
    bob->bind(lfd, 80);
    bob->listen(lfd, 8);
    const int afd = alice->socket();
    alice->connect(afd, 0x0A000002, 80);

    // Drop the first SYN on the floor.
    alice->pollOutput([](const uint8_t *, std::size_t) {});
    EXPECT_FALSE(alice->isEstablished(afd));

    now += 300'000'000; // beyond RTO
    pump();
    EXPECT_TRUE(alice->isEstablished(afd));
    EXPECT_GE(alice->stats().retransmits, 1u);
}

TEST_F(TcpPair, MultipleConcurrentConnections)
{
    const int lfd = bob->socket();
    bob->bind(lfd, 80);
    bob->listen(lfd, 16);

    constexpr int kConns = 8;
    int afds[kConns], bfds[kConns];
    for (int i = 0; i < kConns; ++i) {
        afds[i] = alice->socket();
        ASSERT_EQ(alice->connect(afds[i], 0x0A000002, 80), kNetOk);
    }
    pump();
    for (int i = 0; i < kConns; ++i) {
        bfds[i] = bob->accept(lfd);
        ASSERT_GE(bfds[i], 0) << i;
    }
    // Interleave traffic; streams must not cross.
    for (int i = 0; i < kConns; ++i) {
        const std::string msg = "conn-" + std::to_string(i);
        alice->send(afds[i], msg.data(), msg.size());
    }
    pump();
    for (int i = 0; i < kConns; ++i) {
        char buf[16] = {};
        const auto n = bob->recv(bfds[i], buf, sizeof(buf));
        EXPECT_EQ(std::string(buf, static_cast<std::size_t>(n)),
                  "conn-" + std::to_string(i));
    }
}

TEST_F(TcpPair, BindConflictRejected)
{
    const int a = bob->socket();
    const int b = bob->socket();
    EXPECT_EQ(bob->bind(a, 80), kNetOk);
    EXPECT_EQ(bob->listen(a, 4), kNetOk);
    EXPECT_EQ(bob->bind(b, 80), kNetInUse);
}

TEST_F(TcpPair, SendOnUnconnectedSocketFails)
{
    const int fd = alice->socket();
    EXPECT_EQ(alice->send(fd, "x", 1), kNetNotConn);
    EXPECT_EQ(alice->send(999, "x", 1), kNetBadFd);
}

TEST_F(TcpPair, GarbageInputIsIgnored)
{
    std::vector<uint8_t> junk(64, 0xEE);
    alice->input(junk.data(), junk.size()); // no crash, no effect
    alice->input(junk.data(), 3);
    const auto &st = alice->stats();
    EXPECT_EQ(st.segsIn, 0u);
}

} // namespace
} // namespace cubicleos::libos
