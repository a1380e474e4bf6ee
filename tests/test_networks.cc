/**
 * @file
 * Unit and property tests for the network architectures (the
 * all-topology suite covers every NetSel, hermes included):
 * delivery correctness, zero-load latency arithmetic, Table 5/6
 * descriptors, and topology-specific mechanics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "net/arrival_fifo.hh"
#include "net/circuit_switched.hh"
#include "net/factory.hh"
#include "net/limited_pt2pt.hh"
#include "net/pt2pt.hh"
#include "net/token_ring.hh"
#include "net/two_phase.hh"
#include "sim/random.hh"
#include "topology_param.hh"

namespace
{

using namespace macrosim;

class AllNetworks : public ::testing::TestWithParam<Topology>
{
};

TEST_P(AllNetworks, DeliversEveryPacketExactlyOnce)
{
    Simulator sim(11);
    const MacrochipConfig cfg = simulatedConfig();
    auto net = makeNetworkFor(GetParam().net(), sim, cfg);

    std::map<std::uint64_t, int> seen;
    net->setDefaultHandler([&](const Message &m) {
        ++seen[m.cookie];
        EXPECT_GE(m.delivered, m.injected);
        EXPECT_GE(m.injected, m.created);
    });

    int expected = 0;
    for (SiteId src = 0; src < 64; src += 7) {
        for (SiteId dst = 0; dst < 64; dst += 5) {
            Message m;
            m.src = src;
            m.dst = dst;
            m.bytes = 64;
            m.cookie = static_cast<std::uint64_t>(src) * 100 + dst;
            net->inject(m);
            ++expected;
        }
    }
    sim.run();
    EXPECT_EQ(static_cast<int>(seen.size()), expected);
    for (const auto &[cookie, count] : seen)
        EXPECT_EQ(count, 1) << "cookie " << cookie;
    EXPECT_EQ(net->stats().delivered.value(),
              static_cast<std::uint64_t>(expected));
}

TEST_P(AllNetworks, LoopbackTakesOneCycle)
{
    Simulator sim;
    auto net = makeNetworkFor(GetParam().net(), sim, simulatedConfig());
    Tick delivered = 0;
    net->setDefaultHandler([&](const Message &m) {
        delivered = m.delivered;
    });
    Message m;
    m.src = 5;
    m.dst = 5;
    net->inject(m);
    sim.run();
    EXPECT_EQ(delivered, 200u); // one 5 GHz cycle
}

TEST_P(AllNetworks, PerSiteHandlerOverridesDefault)
{
    Simulator sim;
    auto net = makeNetworkFor(GetParam().net(), sim, simulatedConfig());
    int site3 = 0, fallback = 0;
    net->setDeliveryHandler(3, [&](const Message &) { ++site3; });
    net->setDefaultHandler([&](const Message &) { ++fallback; });
    Message a;
    a.src = 0;
    a.dst = 3;
    net->inject(a);
    Message b;
    b.src = 0;
    b.dst = 4;
    net->inject(b);
    sim.run();
    EXPECT_EQ(site3, 1);
    EXPECT_EQ(fallback, 1);
}

TEST_P(AllNetworks, StatsRegistrationPullsLiveValues)
{
    Simulator sim;
    auto net = makeNetworkFor(GetParam().net(), sim, simulatedConfig());
    net->setDefaultHandler([](const Message &) {});
    StatRegistry group;
    net->registerStats(group, "net");

    Message m;
    m.src = 0;
    m.dst = 1;
    net->inject(m);
    sim.run();

    std::ostringstream os;
    group.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("net.injected 1"), std::string::npos);
    EXPECT_NE(text.find("net.delivered 1"), std::string::npos);
    EXPECT_NE(text.find("net.bytes 64"), std::string::npos);
}

TEST_P(AllNetworks, StaticPowerIsPositiveAndDominatedByLasers)
{
    Simulator sim;
    auto net = makeNetworkFor(GetParam().net(), sim, simulatedConfig());
    EXPECT_GT(net->laserWatts(), 0.0);
    EXPECT_GE(net->staticWatts(), net->laserWatts());
    EXPECT_DOUBLE_EQ(net->energy().staticWatts(), net->staticWatts());
}

INSTANTIATE_TEST_SUITE_P(Topologies, AllNetworks,
                         ::testing::ValuesIn(allTopologies()),
                         topologyName);

// ---------------------------------------------------------------------
// Point-to-point specifics (section 4.2).

TEST(PointToPoint, ChannelWidthIsTwoWavelengths)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    EXPECT_EQ(net.wavelengthsPerChannel(), 2u);
    EXPECT_DOUBLE_EQ(net.channel(0, 1).bandwidthBytesPerNs(), 5.0);
}

TEST(PointToPoint, ChannelFlightTimesEqualEveryPairsRouteDelay)
{
    // Both per-pair topologies fill their channels from a table by
    // Manhattan distance; each entry must be what the pair's own
    // route evaluates to, on square, flat and odd grids.
    const std::pair<std::uint32_t, std::uint32_t> grids[] = {
        {1, 1}, {1, 7}, {3, 5}, {8, 8}, {16, 16}, {24, 24}};
    for (const auto &[rows, cols] : grids) {
        SCOPED_TRACE(testing::Message() << rows << "x" << cols);
        const MacrochipConfig cfg = scaledConfig(rows, cols);
        Simulator p2p_sim, lp2p_sim;
        const PointToPointNetwork p2p(p2p_sim, cfg);
        const LimitedPointToPointNetwork lp2p(lp2p_sim, cfg);
        const MacrochipGeometry &g = p2p.geometry();
        const SiteId n = cfg.siteCount();
        ASSERT_EQ(p2p.channelCount(), std::size_t{n} * n);
        std::size_t peers = 0;
        for (SiteId s = 0; s < n; ++s) {
            for (SiteId d = 0; d < n; ++d) {
                const Tick want = MacrochipGeometry::waveguideDelay(
                    g.routeLengthCm(s, d));
                ASSERT_EQ(p2p.channel(s, d).propagation(), want)
                    << s << "->" << d;
                if (s == d || !lp2p.arePeers(s, d))
                    continue;
                ASSERT_EQ(lp2p.channel(s, d).propagation(), want)
                    << s << "->" << d;
                ++peers;
            }
        }
        EXPECT_EQ(peers, std::size_t{n} * (rows + cols - 2));
    }
}

TEST(PointToPoint, ZeroLoadLatencyArithmetic)
{
    // 1 cycle E-O + 12.8 ns serialization (64 B at 5 B/ns) + 0.25 ns
    // flight (adjacent sites) + 1 cycle O-E = 13.45 ns.
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    Tick delivered = 0;
    net.setDefaultHandler([&](const Message &m) {
        delivered = m.delivered;
    });
    Message m;
    m.src = 0;
    m.dst = 1;
    m.bytes = 64;
    net.inject(m);
    sim.run();
    EXPECT_EQ(delivered, 200u + 12800u + 250u + 200u);
}

TEST(PointToPoint, BackToBackPacketsQueueOnTheirChannel)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    std::vector<Tick> times;
    net.setDefaultHandler([&](const Message &m) {
        times.push_back(m.delivered);
    });
    for (int i = 0; i < 3; ++i) {
        Message m;
        m.src = 0;
        m.dst = 1;
        net.inject(m);
    }
    sim.run();
    ASSERT_EQ(times.size(), 3u);
    // Each successive packet waits one extra serialization time.
    EXPECT_EQ(times[1] - times[0], 12800u);
    EXPECT_EQ(times[2] - times[1], 12800u);
}

TEST(PointToPoint, DisjointPairsDoNotInterfere)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    std::vector<Tick> lat;
    net.setDefaultHandler([&](const Message &m) {
        lat.push_back(m.delivered - m.injected);
    });
    Message a;
    a.src = 0;
    a.dst = 1;
    net.inject(a);
    Message b;
    b.src = 2;
    b.dst = 3;
    net.inject(b);
    sim.run();
    ASSERT_EQ(lat.size(), 2u);
    EXPECT_EQ(lat[0], lat[1]); // same distance, independent channels
}

TEST(PointToPoint, Table6Counts)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    const ComponentCounts c = net.componentCounts();
    EXPECT_EQ(c.transmitters, 8192u);
    EXPECT_EQ(c.receivers, 8192u);
    EXPECT_EQ(c.waveguides, 3072u);
    EXPECT_EQ(c.opticalSwitches, 0u);
    EXPECT_EQ(c.electronicRouters, 0u);
}

TEST(PointToPoint, Table5Power)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    const auto specs = net.opticalPower();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].wavelengths, 8192u);
    EXPECT_DOUBLE_EQ(specs[0].lossFactor, 1.0);
    EXPECT_NEAR(net.laserWatts(), 8.19, 0.01);
}

// ---------------------------------------------------------------------
// Limited point-to-point specifics (section 4.6).

TEST(LimitedP2P, PeersAndForwarders)
{
    Simulator sim;
    LimitedPointToPointNetwork net(sim, simulatedConfig());
    EXPECT_TRUE(net.arePeers(0, 7));   // same row
    EXPECT_TRUE(net.arePeers(0, 56));  // same column
    EXPECT_FALSE(net.arePeers(0, 9));
    // Forwarder sits at (src row, dst col).
    EXPECT_EQ(net.forwarderFor(0, 9), 1u);
    EXPECT_EQ(net.forwarderFor(63, 0), 56u);
    // The forwarder is a peer of both endpoints.
    for (SiteId s : {SiteId{0}, SiteId{13}, SiteId{42}}) {
        for (SiteId d : {SiteId{9}, SiteId{27}, SiteId{62}}) {
            if (s == d || net.arePeers(s, d))
                continue;
            const SiteId f = net.forwarderFor(s, d);
            EXPECT_TRUE(net.arePeers(s, f));
            EXPECT_TRUE(net.arePeers(f, d));
        }
    }
}

TEST(LimitedP2P, DirectChannelLatency)
{
    // 1 cycle + 3.2 ns (64 B at 20 B/ns) + 0.25 ns + 1 cycle.
    Simulator sim;
    LimitedPointToPointNetwork net(sim, simulatedConfig());
    Tick delivered = 0;
    net.setDefaultHandler([&](const Message &m) {
        delivered = m.delivered;
    });
    Message m;
    m.src = 0;
    m.dst = 1;
    net.inject(m);
    sim.run();
    EXPECT_EQ(delivered, 200u + 3200u + 250u + 200u);
    EXPECT_EQ(net.forwardedPackets(), 0u);
}

TEST(LimitedP2P, ForwardedPacketTakesOneElectronicHop)
{
    Simulator sim;
    LimitedPointToPointNetwork net(sim, simulatedConfig());
    Tick delivered = 0;
    net.setDefaultHandler([&](const Message &m) {
        delivered = m.delivered;
    });
    Message m;
    m.src = 0;
    m.dst = 9; // (1,1): not a peer of (0,0)
    m.bytes = 64;
    net.inject(m);
    sim.run();
    // Leg 1 to site 1: 200+3200+250+200 = 3850; router: 200;
    // leg 2: 200 E-O + 3200 + 250 + 200 O-E.
    EXPECT_EQ(delivered, 3850u + 200u + 200u + 3200u + 250u + 200u);
    EXPECT_EQ(net.forwardedPackets(), 1u);
    EXPECT_EQ(net.energy().routerBytes(), 64u);
}

TEST(LimitedP2P, RouterEnergyOnlyForForwardedTraffic)
{
    Simulator sim;
    LimitedPointToPointNetwork net(sim, simulatedConfig());
    net.setDefaultHandler([](const Message &) {});
    Message direct;
    direct.src = 0;
    direct.dst = 5;
    net.inject(direct);
    sim.run();
    EXPECT_EQ(net.energy().routerBytes(), 0u);
    Message fwd;
    fwd.src = 0;
    fwd.dst = 9;
    fwd.bytes = 72;
    net.inject(fwd);
    sim.run();
    EXPECT_EQ(net.energy().routerBytes(), 72u);
    // 60 pJ/byte.
    EXPECT_NEAR(net.energy().routerJoules(), 72.0 * 60e-12, 1e-15);
}

TEST(LimitedP2P, Table6Counts)
{
    Simulator sim;
    LimitedPointToPointNetwork net(sim, simulatedConfig());
    const ComponentCounts c = net.componentCounts();
    EXPECT_EQ(c.transmitters, 8192u);
    EXPECT_EQ(c.receivers, 8192u);
    EXPECT_EQ(c.waveguides, 3072u);
    EXPECT_EQ(c.opticalSwitches, 0u);
    EXPECT_EQ(c.electronicRouters, 128u);
}

// ---------------------------------------------------------------------
// Token-ring crossbar specifics (section 4.4).

TEST(TokenRing, RingPositionsAreSerpentine)
{
    Simulator sim;
    TokenRingCrossbar net(sim, simulatedConfig());
    // Row 0 runs left to right, row 1 right to left.
    EXPECT_EQ(net.ringPosition(0), 0u);
    EXPECT_EQ(net.ringPosition(7), 7u);
    EXPECT_EQ(net.ringPosition(15), 8u); // (1,7) follows (0,7)
    EXPECT_EQ(net.ringPosition(8), 15u);
    // All positions distinct.
    std::vector<bool> used(64, false);
    for (SiteId s = 0; s < 64; ++s) {
        EXPECT_FALSE(used[net.ringPosition(s)]);
        used[net.ringPosition(s)] = true;
    }
}

TEST(TokenRing, RoundTripIs80Cycles)
{
    Simulator sim;
    TokenRingCrossbar net(sim, simulatedConfig());
    EXPECT_EQ(net.tokenRoundTrip(), 16 * tickNs);
    EXPECT_EQ(systemClock.ticksToCycles(net.tokenRoundTrip()).count(),
              80u);
}

TEST(TokenRing, SingleSenderPaysFullRoundTripBetweenPackets)
{
    Simulator sim;
    TokenRingCrossbar net(sim, simulatedConfig());
    std::vector<Tick> times;
    net.setDefaultHandler([&](const Message &m) {
        times.push_back(m.delivered);
    });
    for (int i = 0; i < 3; ++i) {
        Message m;
        m.src = 0;
        m.dst = 1;
        m.bytes = 64;
        net.inject(m);
    }
    sim.run();
    ASSERT_EQ(times.size(), 3u);
    // One 64 B packet per token round trip (16 ns) + 0.2 ns hold:
    // this is the one-to-one throughput collapse of section 6.1.
    EXPECT_EQ(times[1] - times[0], 16200u);
    EXPECT_EQ(times[2] - times[1], 16200u);
}

TEST(TokenRing, TokenVisitsWaitersInRingOrder)
{
    Simulator sim;
    TokenRingCrossbar net(sim, simulatedConfig());
    StatRegistry group;
    net.registerStats(group, "net");
    std::vector<SiteId> order;
    net.setDefaultHandler([&](const Message &m) {
        order.push_back(m.src);
    });
    // Three senders to destination 9, all queued at t=0. After the
    // first grant the token is at the granted sender; the next waiter
    // downstream in serpentine order wins next.
    for (SiteId src : {SiteId{4}, SiteId{2}, SiteId{6}}) {
        Message m;
        m.src = src;
        m.dst = 9;
        net.inject(m);
    }
    EXPECT_EQ(group.value("net.waiting_channels"), 1.0);
    sim.run();
    EXPECT_EQ(group.value("net.waiting_channels"), 0.0);
    ASSERT_EQ(order.size(), 3u);
    // Token starts conceptually at position 0: first pass reaches
    // site 2 first, then 4, then 6.
    EXPECT_EQ(order, (std::vector<SiteId>{2, 4, 6}));
}

/**
 * A hand-built token-ring schedule on the 8x8 ring: senders, named by
 * ring position, queue 64 B packets for destination 9 at chosen
 * ticks; deliveries are recorded as (source ring position, tick).
 */
struct RingSchedule
{
    using Deliveries = std::vector<std::pair<std::uint32_t, Tick>>;

    Simulator sim;
    TokenRingCrossbar net{sim, simulatedConfig()};
    const Tick loop = net.tokenRoundTrip();
    const Tick hop = loop / net.ringSize();
    const Tick hold =
        OpticalChannel(simulatedConfig().rxPerSite, 0).serialization(64);
    const SiteId dst = 9;
    Deliveries got;

    RingSchedule()
    {
        net.setDefaultHandler([this](const Message &m) {
            got.emplace_back(net.ringPosition(m.src), m.delivered);
        });
    }

    void
    send(std::uint32_t pos, Tick at)
    {
        SiteId src = 0;
        while (net.ringPosition(src) != pos)
            ++src;
        sim.events().schedule(at, [this, src] {
            Message m;
            m.src = src;
            m.dst = dst;
            m.bytes = 64;
            net.inject(m);
        }, "test.inject");
    }

    /** Delivery of a packet from @p pos whose grant fired at @p at:
     *  the hold, then forward hops to the destination. */
    Tick
    deliveredAt(std::uint32_t pos, Tick at) const
    {
        const std::uint32_t n = net.ringSize();
        const std::uint32_t to = net.ringPosition(dst);
        return at + hold + ((to + n - pos - 1) % n + 1) * hop;
    }
};

TEST(TokenRing, IdleTokenReachesNoHeadOnFirstPass)
{
    // The token has idled at position 0 since t=0. Three senders
    // queue at once, ten loops and 20 hops (plus a tick) later: every
    // first pass is long gone, so each waits for a later loop, and
    // the first position the token reaches after the injection (30)
    // wins; the others then follow in ring order.
    RingSchedule r;
    for (const std::uint32_t pos : {5u, 30u, 50u})
        r.send(pos, 10 * r.loop + 20 * r.hop + 1);
    r.sim.run();

    const Tick g1 = 10 * r.loop + 30 * r.hop;
    const Tick g2 = g1 + r.hold + 20 * r.hop;
    const Tick g3 = g2 + r.hold + 19 * r.hop;
    EXPECT_EQ(r.got, (RingSchedule::Deliveries{
                         {30, r.deliveredAt(30, g1)},
                         {50, r.deliveredAt(50, g2)},
                         {5, r.deliveredAt(5, g3)},
                     }));
}

TEST(TokenRing, WaiterAtTokenPositionWaitsAFullLoop)
{
    // Position 10 queues two packets at t=0; the first is granted
    // when the token first passes (10 hops). Its twin is then a full
    // loop away (h = n), so a sender queued at position 40 goes first.
    {
        RingSchedule r;
        r.send(10, 0);
        r.send(10, 0);
        r.send(40, 0);
        r.sim.run();
        const Tick g1 = 10 * r.hop;
        const Tick g2 = g1 + r.hold + 30 * r.hop;
        const Tick g3 = g2 + r.hold + 34 * r.hop;
        EXPECT_EQ(r.got, (RingSchedule::Deliveries{
                             {10, r.deliveredAt(10, g1)},
                             {40, r.deliveredAt(40, g2)},
                             {10, r.deliveredAt(10, g3)},
                         }));
    }
    // With nothing else ready for its first pass the twin wins, a
    // loop on. A sender at position 20 queues 15 hops after the token
    // left position 10, so it missed its first pass and waits for the
    // second loop -- later than the twin.
    {
        RingSchedule r;
        const Tick g1 = 10 * r.hop;
        const Tick t1 = g1 + r.hold;
        r.send(10, 0);
        r.send(10, 0);
        r.send(20, t1 + 15 * r.hop);
        r.sim.run();
        const Tick g2 = t1 + r.loop;
        const Tick g3 = g2 + r.hold + 10 * r.hop;
        EXPECT_EQ(r.got, (RingSchedule::Deliveries{
                             {10, r.deliveredAt(10, g1)},
                             {10, r.deliveredAt(10, g2)},
                             {20, r.deliveredAt(20, g3)},
                         }));
    }
}

// Token-ring storms on grids whose ring spans one to nine 64-bit
// position-mask words: 8x8 and 3x5 (one word), 9x9 (two), 1x65 (the
// last position alone in the second word) and 24x24 (nine). Each run
// hashes every delivery in order. The digests were recorded with the
// grant scan these per-position FIFOs replaced, which rescanned every
// waiter of a destination in arrival order.

enum class StormTraffic
{
    /** 4 packets/ns per site to uniform destinations: more than a
     *  token grants (one per hold + hop) on every grid. */
    Saturated,
    /** 1 packet/ns per site, half of it to two destinations. */
    Hotspot,
    /** Two packets per site over 64 token loops: the token idles and
     *  grants take the later-loop fallback. */
    Sparse,
};

std::uint64_t
tokenRingStormDigest(std::uint32_t rows, std::uint32_t cols,
                     StormTraffic traffic)
{
    const MacrochipConfig cfg = scaledConfig(rows, cols);
    const SiteId sites = cfg.siteCount();
    Simulator sim;
    TokenRingCrossbar net(sim, cfg);
    net.setRetryPolicy(RetryPolicy{50 * tickNs, 3});
    std::uint64_t digest = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    net.setDefaultHandler([&](const Message &m) {
        for (const std::uint64_t v :
             {std::uint64_t{m.src}, std::uint64_t{m.dst}, m.injected,
              m.delivered, m.serialization}) {
            digest = hashCombine(digest, v);
        }
        ++delivered;
    });
    net.setDropHandler([&](const Message &) { ++dropped; });

    Tick span = 30 * tickNs;
    std::uint64_t packets = 4 * 30 * std::uint64_t{sites};
    if (traffic == StormTraffic::Hotspot) {
        packets = 30 * std::uint64_t{sites};
    } else if (traffic == StormTraffic::Sparse) {
        span = 64 * net.tokenRoundTrip();
        packets = 2 * std::uint64_t{sites};
    }
    Rng rng(hashCombine(rows * 1000 + cols,
                        static_cast<std::uint64_t>(traffic)));
    const SiteId hot[2] = {sites / 4, 3 * sites / 4};
    for (std::uint64_t i = 0; i < packets; ++i) {
        Message m;
        m.src = static_cast<SiteId>(rng.below(sites));
        if (traffic == StormTraffic::Hotspot && rng.chance(0.5)) {
            m.dst = hot[rng.below(2)];
        } else {
            m.dst = static_cast<SiteId>(
                (m.src + 1 + rng.below(sites - 1)) % sites);
        }
        m.bytes = 64;
        m.cookie = i;
        sim.events().schedule(rng.below(span),
                              [&net, m] { net.inject(m); },
                              "test.inject");
    }
    // Kill one bundle for the second quarter of the span and mask
    // another to half width from a third of the way on.
    const SiteId killed = sites / 2;
    const SiteId masked = sites / 3;
    sim.events().schedule(span / 4, [&net, killed] {
        net.applyLinkHealth(killed, killed, LinkHealth{true, 1.0});
    }, "test.fault");
    sim.events().schedule(span / 2, [&net, killed] {
        net.applyLinkHealth(killed, killed, LinkHealth{});
    }, "test.fault");
    sim.events().schedule(span / 3, [&net, masked] {
        net.applyLinkHealth(masked, masked, LinkHealth{false, 0.5});
    }, "test.fault");
    sim.run();

    EXPECT_EQ(net.stats().injected.value(), packets);
    EXPECT_EQ(delivered + dropped, packets);
    EXPECT_EQ(sim.events().size(), 0u);
    return hashCombine(hashCombine(digest, delivered), dropped);
}

TEST(TokenRing, SaturatedStormsMatchParentDigests)
{
    struct Case
    {
        std::uint32_t rows;
        std::uint32_t cols;
        StormTraffic traffic;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {8, 8, StormTraffic::Saturated, 0x7da557c26587cf60ULL},
        {8, 8, StormTraffic::Hotspot, 0x2da35df639cee4caULL},
        {8, 8, StormTraffic::Sparse, 0xdd8bd2145c65b5b2ULL},
        {3, 5, StormTraffic::Saturated, 0xec2e373a31778686ULL},
        {3, 5, StormTraffic::Hotspot, 0x0f10b2718e72f1ecULL},
        {3, 5, StormTraffic::Sparse, 0x2b992f17c6d93614ULL},
        {9, 9, StormTraffic::Saturated, 0x3b03afdd149e735fULL},
        {9, 9, StormTraffic::Hotspot, 0xc6e673f10fb4f4cbULL},
        {9, 9, StormTraffic::Sparse, 0x0bacfe8a62303685ULL},
        {1, 65, StormTraffic::Saturated, 0xe295fd356e8ccaafULL},
        {1, 65, StormTraffic::Hotspot, 0xb90ee2c61947a112ULL},
        {1, 65, StormTraffic::Sparse, 0xb32f972909424badULL},
        {24, 24, StormTraffic::Saturated, 0x963f4677406764ffULL},
        {24, 24, StormTraffic::Hotspot, 0xa43ca041af2392c6ULL},
        {24, 24, StormTraffic::Sparse, 0xadd5036af26a9516ULL},
    };
    for (const Case &c : cases) {
        const std::uint64_t got =
            tokenRingStormDigest(c.rows, c.cols, c.traffic);
        EXPECT_EQ(got, c.digest)
            << c.rows << "x" << c.cols << " traffic "
            << static_cast<int>(c.traffic) << ": 0x" << std::hex << got;
    }
}

/**
 * A saturating uniform storm on a topology whose channels queue their
 * arrivals in FIFOs (pt2pt, limited pt2pt, two-phase, two-phase ALT,
 * hermes): every site injects 120 packets of 64 or 256 B inside 30 ns, one
 * faultable link dies for the second quarter of that span and another
 * drops to half width from a third of the way on. The digest hashes
 * (src, dst, injected, delivered, serialization) in delivery order,
 * then the delivered, dropped and retried counts, so it moves with any
 * change to same-tick order, retry timing or a drop.
 */
std::uint64_t
fifoStormDigest(NetSel sel, std::uint32_t rows, std::uint32_t cols)
{
    const MacrochipConfig cfg = scaledConfig(rows, cols);
    const SiteId sites = cfg.siteCount();
    Simulator sim;
    const std::unique_ptr<Network> net = makeNetworkFor(sel, sim, cfg);
    net->setRetryPolicy(RetryPolicy{50 * tickNs, 3});
    std::uint64_t digest = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    net->setDefaultHandler([&](const Message &m) {
        for (const std::uint64_t v :
             {std::uint64_t{m.src}, std::uint64_t{m.dst}, m.injected,
              m.delivered, m.serialization}) {
            digest = hashCombine(digest, v);
        }
        ++delivered;
    });
    net->setDropHandler([&](const Message &) { ++dropped; });

    const Tick span = 30 * tickNs;
    const std::uint64_t packets = 4 * 30 * std::uint64_t{sites};
    Rng rng(hashCombine(rows * 1000 + cols, static_cast<std::uint64_t>(sel)));
    for (std::uint64_t i = 0; i < packets; ++i) {
        Message m;
        m.src = static_cast<SiteId>(rng.below(sites));
        m.dst = static_cast<SiteId>((m.src + 1 + rng.below(sites - 1))
                                    % sites);
        // A quarter of the packets serialize longer than the base
        // two-phase design's grant spacing, so its trees collide too.
        m.bytes = rng.below(4) == 0 ? 256 : 64;
        m.cookie = i;
        Network *n = net.get();
        sim.events().schedule(rng.below(span), [n, m] { n->inject(m); },
                              "test.inject");
    }
    const std::vector<std::pair<SiteId, SiteId>> links =
        net->faultableLinks();
    const std::pair<SiteId, SiteId> killed = links[links.size() / 2];
    const std::pair<SiteId, SiteId> masked = links.front();
    Network *n = net.get();
    sim.events().schedule(span / 4, [n, killed] {
        n->applyLinkHealth(killed.first, killed.second,
                           LinkHealth{true, 1.0});
    }, "test.fault");
    sim.events().schedule(span / 2, [n, killed] {
        n->applyLinkHealth(killed.first, killed.second, LinkHealth{});
    }, "test.fault");
    sim.events().schedule(span / 3, [n, masked] {
        n->applyLinkHealth(masked.first, masked.second,
                           LinkHealth{false, 0.5});
    }, "test.fault");
    sim.run();

    EXPECT_EQ(net->stats().injected.value(), packets);
    EXPECT_EQ(delivered + dropped, packets);
    EXPECT_EQ(sim.events().size(), 0u);
    if (sel == NetSel::TwoPhase || sel == NetSel::TwoPhaseAlt) {
        EXPECT_GT(static_cast<const TwoPhaseArbitratedNetwork &>(*net)
                      .wastedSlots(),
                  0u);
    }
    return hashCombine(
        hashCombine(hashCombine(digest, delivered), dropped),
        net->retriedPackets());
}

TEST(ChannelFifos, SaturatedStormsMatchParentDigests)
{
    // Recorded before any of these topologies queued arrivals in
    // channel FIFOs, when every queued packet was its own event.
    struct Case
    {
        NetSel net;
        std::uint32_t rows;
        std::uint32_t cols;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {NetSel::PointToPoint, 8, 8, 0x0d55aab564937fccULL},
        {NetSel::PointToPoint, 3, 5, 0x163e440d6cf981eeULL},
        {NetSel::PointToPoint, 24, 24, 0x61a0671350fed86cULL},
        {NetSel::LimitedPtToPt, 8, 8, 0x4aa5e290075a5eb5ULL},
        {NetSel::LimitedPtToPt, 3, 5, 0x12219c05aa39e51dULL},
        {NetSel::LimitedPtToPt, 24, 24, 0x24e9d59f32b51dccULL},
        {NetSel::Hermes, 8, 8, 0x5789a43776e947c6ULL},
        {NetSel::Hermes, 3, 5, 0x549e2be93a2440f3ULL},
        {NetSel::Hermes, 24, 24, 0x600e3869f3d21427ULL},
        {NetSel::TwoPhase, 8, 8, 0xc28b56fdf0c91b69ULL},
        {NetSel::TwoPhase, 3, 5, 0xaebefc7c3fafaa1cULL},
        {NetSel::TwoPhase, 24, 24, 0x8bda9bcfd5c809c0ULL},
        {NetSel::TwoPhaseAlt, 8, 8, 0xff754bb57e36cfc0ULL},
        {NetSel::TwoPhaseAlt, 3, 5, 0xd5cca218a8725ce2ULL},
        {NetSel::TwoPhaseAlt, 24, 24, 0x7a8d594ec623ead1ULL},
    };
    for (const Case &c : cases) {
        const std::uint64_t got = fifoStormDigest(c.net, c.rows, c.cols);
        EXPECT_EQ(got, c.digest)
            << netShortName(c.net) << " " << c.rows << "x" << c.cols
            << ": 0x" << std::hex << got;
    }
}

TEST(ChannelFifos, PeakQueuedCountsInterSitePacketsInFlight)
{
    // A saturated point-to-point storm without faults: every inter-site
    // packet is an arrival pending on its channel from inject to
    // delivery, queued or not, so peak_queued is the storm's own peak
    // in flight.
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    const SiteId sites = simulatedConfig().siteCount();
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t peak = 0;
    net.setDefaultHandler([&](const Message &) { ++delivered; });
    Rng rng(5);
    const std::uint64_t packets = 120 * std::uint64_t{sites};
    for (std::uint64_t i = 0; i < packets; ++i) {
        Message m;
        m.src = static_cast<SiteId>(rng.below(sites));
        m.dst = static_cast<SiteId>((m.src + 1 + rng.below(sites - 1))
                                    % sites);
        sim.events().schedule(rng.below(30 * tickNs), [&, m] {
            net.inject(m);
            ++injected;
            peak = std::max(peak, injected - delivered);
        }, "test.inject");
    }
    sim.run();
    ASSERT_EQ(delivered, packets);
    const StatRegistry &reg = sim.telemetry();
    EXPECT_EQ(reg.value(net.statPrefix() + ".peak_queued"),
              static_cast<double>(peak));
    EXPECT_EQ(reg.value(net.statPrefix() + ".queued"), 0.0);
    EXPECT_GT(peak, packets / 2); // saturated: most of it at once
}

TEST(ChannelFifosDeathTest, ArrivalEarlierThanTailPanics)
{
    ArrivalFifos fifos(2);
    const Message m;
    // The head goes to the event queue; the rest wait in the pool.
    EXPECT_TRUE(fifos.push(0, 100, 0, m, Leg::Deliver, 0));
    EXPECT_FALSE(fifos.push(0, 120, 1, m, Leg::Deliver, 0));
    EXPECT_FALSE(fifos.push(0, 120, 2, m, Leg::Deliver, 0));
    // Another FIFO is free to start earlier.
    EXPECT_TRUE(fifos.push(1, 50, 3, m, Leg::Deliver, 0));
    EXPECT_DEATH(fifos.push(0, 119, 4, m, Leg::Deliver, 0),
                 "earlier than its tail");
    std::vector<std::uint64_t> filed;
    const auto file = [&](const Arrival &a) { filed.push_back(a.seq); };
    fifos.advance(0, file);
    fifos.advance(0, file);
    fifos.advance(0, file);
    EXPECT_EQ(filed, (std::vector<std::uint64_t>{1, 2}));
    // Idle again: the next arrival is a head, at any tick.
    EXPECT_TRUE(fifos.push(0, 10, 5, m, Leg::Deliver, 0));
}

TEST(TokenRing, Table6Counts)
{
    Simulator sim;
    TokenRingCrossbar net(sim, simulatedConfig());
    const ComponentCounts c = net.componentCounts();
    EXPECT_EQ(c.transmitters, 512u * 1024u);
    EXPECT_EQ(c.receivers, 8192u);
    EXPECT_EQ(net.physicalWaveguides(), 8192u);
    EXPECT_EQ(c.waveguides, 32u * 1024u);
    EXPECT_EQ(c.opticalSwitches, 0u);
}

TEST(TokenRing, Table5Power)
{
    Simulator sim;
    TokenRingCrossbar net(sim, simulatedConfig());
    const auto specs = net.opticalPower();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].wavelengths, 8192u);
    EXPECT_NEAR(specs[0].lossFactor, 19.05, 0.01);
    EXPECT_NEAR(net.laserWatts(), 156.1, 0.5);
}

// ---------------------------------------------------------------------
// Circuit-switched torus specifics (section 4.5).

TEST(CircuitSwitched, TorusPathUsesWraparound)
{
    Simulator sim;
    CircuitSwitchedTorus net(sim, simulatedConfig());
    // Adjacent via wrap: no intermediate switch points.
    EXPECT_TRUE(net.torusPath(0, 7).empty());
    EXPECT_TRUE(net.torusPath(0, 1).empty());
    // (0,0) -> (0,2): one intermediate at (0,1).
    EXPECT_EQ(net.torusPath(0, 2), (std::vector<SiteId>{1}));
    // (0,0) -> (1,1): X first through (0,1).
    EXPECT_EQ(net.torusPath(0, 9), (std::vector<SiteId>{1}));
    // Worst case on an 8x8 torus: 4+4 hops -> 7 intermediates.
    EXPECT_EQ(net.torusPath(0, 36).size(), 7u); // (0,0)->(4,4)
}

TEST(CircuitSwitched, ZeroLoadLatencyIsSetupDominated)
{
    Simulator sim;
    CircuitSwitchedTorus net(sim, simulatedConfig());
    Tick delivered = 0;
    net.setDefaultHandler([&](const Message &m) {
        delivered = m.delivered;
    });
    Message m;
    m.src = 0;
    m.dst = 1;
    m.bytes = 64;
    net.inject(m);
    sim.run();
    // setup 1.6 ns (8 B on the 2-lambda control network) + 0.25
    // flight; ack 0.25 + 0.4; data 0.8 ns serialization at 80 B/ns
    // + 0.25 flight.
    EXPECT_EQ(delivered, 1600u + 250u + 250u + 400u + 800u + 250u);
    // The 64 B transfer itself is only 0.8 ns of the ~3.5 ns total.
    EXPECT_EQ(net.circuitsCompleted(), 1u);
}

TEST(CircuitSwitched, LatencyGrowsWithHopCount)
{
    Simulator sim;
    CircuitSwitchedTorus net(sim, simulatedConfig());
    std::map<SiteId, Tick> lat;
    net.setDefaultHandler([&](const Message &m) {
        lat[m.dst] = m.delivered - m.injected;
    });
    for (SiteId dst : {SiteId{1}, SiteId{2}, SiteId{36}}) {
        Message m;
        m.src = 0;
        m.dst = dst;
        net.inject(m);
    }
    sim.run();
    EXPECT_LT(lat[1], lat[2]);
    EXPECT_LT(lat[2], lat[36]);
}

TEST(CircuitSwitched, GatewaysLimitConcurrentCircuits)
{
    Simulator sim;
    CircuitSwitchedTorus net(sim, simulatedConfig(), 1);
    std::vector<Tick> times;
    net.setDefaultHandler([&](const Message &m) {
        times.push_back(m.delivered);
    });
    // Two circuits from the same source serialize on its only
    // gateway even though destinations differ.
    Message a;
    a.src = 0;
    a.dst = 1;
    net.inject(a);
    Message b;
    b.src = 0;
    b.dst = 2;
    net.inject(b);
    sim.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_GT(times[1] - times[0], 3000u); // second waits for gateway
}

TEST(CircuitSwitched, Table6Counts)
{
    Simulator sim;
    CircuitSwitchedTorus net(sim, simulatedConfig());
    const ComponentCounts c = net.componentCounts();
    EXPECT_EQ(c.transmitters, 8192u);
    EXPECT_EQ(c.receivers, 8192u);
    EXPECT_EQ(c.waveguides, 2048u);
    EXPECT_EQ(c.opticalSwitches, 1024u);
}

TEST(CircuitSwitched, Table5Power)
{
    Simulator sim;
    CircuitSwitchedTorus net(sim, simulatedConfig());
    const auto specs = net.opticalPower();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_DOUBLE_EQ(specs[0].lossFactor, 30.0);
    EXPECT_NEAR(net.laserWatts(), 245.76, 0.01);
}

// ---------------------------------------------------------------------
// Two-phase arbitrated network specifics (section 4.3).

TEST(TwoPhase, ChannelWidthIs16Wavelengths)
{
    Simulator sim;
    TwoPhaseArbitratedNetwork net(sim, simulatedConfig());
    EXPECT_EQ(net.channelLambdas(), 16u);
}

TEST(TwoPhase, ZeroLoadLatencyIncludesBothPhases)
{
    Simulator sim;
    TwoPhaseArbitratedNetwork net(sim, simulatedConfig());
    Tick delivered = 0;
    net.setDefaultHandler([&](const Message &m) {
        delivered = m.delivered;
    });
    Message m;
    m.src = 0;
    m.dst = 1;
    m.bytes = 64;
    net.inject(m);
    sim.run();
    // slot 0.4 + row 1.75 + notification 3.2 + column 1.75 + switch
    // 1.0 + sender guard 1.0 + ser 1.6 + flight 0.25 + 1 cycle.
    EXPECT_EQ(delivered,
              400u + 1750u + 3200u + 1750u + 1000u + 1000u + 1600u
                  + 250u + 200u);
    EXPECT_EQ(net.wastedSlots(), 0u);
}

TEST(TwoPhase, NotificationWaveguideSerializesSameColumnGrants)
{
    // Two transfers from one site into the same column must wait for
    // consecutive 3.2 ns switch requests on the column manager's
    // notification wavelength; a different column is independent.
    Simulator sim;
    TwoPhaseArbitratedNetwork net(sim, simulatedConfig());
    std::map<SiteId, Tick> delivered;
    net.setDefaultHandler([&](const Message &m) {
        delivered[m.dst] = m.delivered;
    });
    Message a;
    a.src = 0;
    a.dst = 9;  // (1,1): column 1
    net.inject(a);
    Message b;
    b.src = 0;
    b.dst = 17; // (2,1): column 1 again
    net.inject(b);
    Message c;
    c.src = 0;
    c.dst = 18; // (2,2): column 2
    net.inject(c);
    sim.run();
    ASSERT_EQ(delivered.size(), 3u);
    // Same column: second grant is pushed a full notification slot
    // later. Different column: unaffected by the first two.
    EXPECT_GE(delivered[17], delivered[9] + 3200u);
    EXPECT_LT(delivered[18], delivered[17]);
}

TEST(TwoPhaseAlt, LessContentionThanBaseUnderLoad)
{
    // Section 6.2: the ALT variant's doubled trees and transmitters
    // reduce slot waste and latency under all-to-all-style load.
    auto run = [](bool alt) {
        Simulator sim(31);
        TwoPhaseArbitratedNetwork net(sim, simulatedConfig(), alt);
        Rng rng(5);
        net.setDefaultHandler([](const Message &) {});
        // A burst: every site fires 24 packets at random targets.
        for (SiteId src = 0; src < 64; ++src) {
            for (int i = 0; i < 24; ++i) {
                Message m;
                m.src = src;
                m.dst = static_cast<SiteId>(rng.below(64));
                net.inject(m);
            }
        }
        sim.run();
        return net.stats().latencyNs.mean();
    };
    const double base_lat = run(false);
    const double alt_lat = run(true);
    // ALT may waste the odd slot on a tree collision (its doubled
    // notification wavelengths allow overlapping grants), but its
    // extra parallelism must win on latency overall.
    EXPECT_LT(alt_lat, base_lat);
}

TEST(TwoPhase, DifferentColumnsNeverCollide)
{
    Simulator sim;
    TwoPhaseArbitratedNetwork net(sim, simulatedConfig());
    int delivered = 0;
    net.setDefaultHandler([&](const Message &) { ++delivered; });
    Message a;
    a.src = 0;
    a.dst = 9;  // column 1
    net.inject(a);
    Message b;
    b.src = 0;
    b.dst = 18; // column 2
    net.inject(b);
    sim.run();
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(net.wastedSlots(), 0u);
}

TEST(TwoPhase, Table6Counts)
{
    Simulator sim;
    TwoPhaseArbitratedNetwork base(sim, simulatedConfig());
    const ComponentCounts c = base.componentCounts();
    EXPECT_EQ(c.transmitters, 8192u);
    EXPECT_EQ(c.receivers, 8192u);
    EXPECT_EQ(c.waveguides, 4096u);
    EXPECT_NEAR(static_cast<double>(c.opticalSwitches), 16000.0,
                1000.0); // "16K"

    TwoPhaseArbitratedNetwork alt(sim, simulatedConfig(), true);
    const ComponentCounts a = alt.componentCounts();
    EXPECT_EQ(a.transmitters, 16384u);
    EXPECT_NEAR(static_cast<double>(a.opticalSwitches), 15000.0,
                1000.0); // "15K"

    const ComponentCounts arb = base.arbitrationCounts();
    EXPECT_EQ(arb.transmitters, 128u);
    EXPECT_EQ(arb.receivers, 1024u);
    EXPECT_EQ(arb.waveguides, 24u);
}

TEST(TwoPhase, Table5Power)
{
    Simulator sim;
    TwoPhaseArbitratedNetwork base(sim, simulatedConfig());
    auto specs = base.opticalPower();
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_NEAR(specs[0].lossFactor, 5.01, 0.01);
    EXPECT_NEAR(specs[0].watts(), 41.0, 0.2);
    EXPECT_DOUBLE_EQ(specs[1].lossFactor, 8.0);
    EXPECT_NEAR(specs[1].watts(), 1.02, 0.01);

    TwoPhaseArbitratedNetwork alt(sim, simulatedConfig(), true);
    specs = alt.opticalPower();
    EXPECT_NEAR(specs[0].lossFactor, 3.98, 0.01);
    EXPECT_NEAR(specs[0].watts(), 65.2, 0.3);
}

TEST(NetFactory, NamesRoundTripThroughParser)
{
    const NetSel all[] = {NetSel::TokenRing,  NetSel::CircuitSwitched,
                          NetSel::PointToPoint, NetSel::LimitedPtToPt,
                          NetSel::TwoPhase,   NetSel::TwoPhaseAlt,
                          NetSel::Hermes};
    for (const NetSel id : all) {
        NetSel back;
        ASSERT_TRUE(netFromString(netShortName(id), &back))
            << netShortName(id);
        EXPECT_EQ(back, id);
        ASSERT_TRUE(netFromString(netDisplayName(id), &back));
        EXPECT_EQ(back, id);
    }
    NetSel out;
    EXPECT_FALSE(netFromString("no-such-network", &out));
}

} // namespace
