/**
 * @file
 * Fault-injection subsystem tests: deterministic schedules, link
 * margin re-evaluation through the section 2 budget arithmetic,
 * fault.* telemetry, protocol retry/timeout behaviour, sweep
 * determinism across worker-thread counts, injector margins against
 * the photonics reference, and packet accounting on
 * arbitrated topologies with dead and masked channels.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "fault/injector.hh"
#include "harness.hh"
#include "net/pt2pt.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"
#include "sim/telemetry/trace.hh"
#include "workloads/coherence.hh"
#include "workloads/message_passing.hh"
#include "workloads/packet_injector.hh"

namespace
{

using namespace macrosim;
using namespace macrosim::bench;

bool
sameEvents(const std::vector<FaultEvent> &a,
           const std::vector<FaultEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].at != b[i].at || a[i].kind != b[i].kind
            || !(a[i].target == b[i].target)
            || a[i].magnitudeDb != b[i].magnitudeDb) {
            return false;
        }
    }
    return true;
}

TEST(FaultSchedule, RandomIsAPureFunctionOfSeed)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    RandomFaultConfig cfg;
    cfg.events = 24;

    const FaultSchedule a = FaultSchedule::random(42, cfg, net);
    const FaultSchedule b = FaultSchedule::random(42, cfg, net);
    const FaultSchedule c = FaultSchedule::random(43, cfg, net);
    EXPECT_FALSE(a.empty());
    EXPECT_TRUE(sameEvents(a.events(), b.events()));
    EXPECT_FALSE(sameEvents(a.events(), c.events()));

    // Every generated channel target is a published faultable link,
    // every site target a valid site.
    const auto links = net.faultableLinks();
    for (const FaultEvent &ev : a.events()) {
        if (ev.target.scope == FaultTarget::Scope::Site) {
            EXPECT_LT(ev.target.a, net.config().siteCount());
            continue;
        }
        bool found = false;
        for (const auto &[s, d] : links)
            found = found || (s == ev.target.a && d == ev.target.b);
        EXPECT_TRUE(found);
    }
}

TEST(FaultSchedule, OrderedReplaysByTimeStably)
{
    FaultSchedule s;
    const FaultTarget t = FaultTarget::channel(0, 1);
    s.add(30, FaultKind::Repair, t);
    s.add(10, FaultKind::RingDrift, t, 1.0);
    s.add(10, FaultKind::WaveguideCreep, t, 2.0);
    const std::vector<FaultEvent> ordered = s.ordered();
    ASSERT_EQ(ordered.size(), 3u);
    EXPECT_EQ(ordered[0].kind, FaultKind::RingDrift);
    EXPECT_EQ(ordered[1].kind, FaultKind::WaveguideCreep);
    EXPECT_EQ(ordered[2].kind, FaultKind::Repair);
}

TEST(FaultInjector, SoftDegradationDeratesThenKillsThenRepairs)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    FaultInjector inj(sim, net, FaultSchedule{});
    const FaultTarget t = FaultTarget::channel(0, 1);
    const std::uint32_t full =
        net.channel(0, 1).activeWavelengths();

    // 3 dB of ring drift: margin 1 dB, inside the 2 dB derate
    // threshold -> half the wavelengths masked, still up.
    inj.apply({0, FaultKind::RingDrift, t, 3.0});
    EXPECT_NEAR(inj.marginDbOf(t), 1.0, 1e-9);
    EXPECT_EQ(inj.linksDerated(), 1u);
    EXPECT_EQ(inj.linksDown(), 0u);
    EXPECT_FALSE(net.channel(0, 1).down());
    EXPECT_EQ(net.channel(0, 1).activeWavelengths(), full / 2);

    // 2 dB more of waveguide creep: margin -1 dB -> link down.
    inj.apply({0, FaultKind::WaveguideCreep, t, 2.0});
    EXPECT_NEAR(inj.marginDbOf(t), -1.0, 1e-9);
    EXPECT_EQ(inj.linksDown(), 1u);
    EXPECT_EQ(inj.linksDerated(), 0u);
    EXPECT_TRUE(net.channel(0, 1).down());
    EXPECT_NEAR(inj.minMarginDb(), -1.0, 1e-9);

    // Repair clears all accumulated degradation.
    inj.apply({0, FaultKind::Repair, t});
    EXPECT_NEAR(inj.marginDbOf(t), 4.0, 1e-9);
    EXPECT_EQ(inj.linksDown(), 0u);
    EXPECT_FALSE(net.channel(0, 1).down());
    EXPECT_EQ(net.channel(0, 1).activeWavelengths(), full);
    EXPECT_EQ(inj.repairs(), 1u);
    EXPECT_EQ(inj.injectedFaults(), 2u);
    // The historical minimum survives the repair.
    EXPECT_NEAR(inj.minMarginDb(), -1.0, 1e-9);
}

TEST(FaultInjector, LaserAndReceiverDegradationErodeMargin)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    FaultInjector inj(sim, net, FaultSchedule{});
    const FaultTarget t = FaultTarget::channel(2, 3);
    inj.apply({0, FaultKind::LaserDroop, t, 2.5});
    EXPECT_NEAR(inj.marginDbOf(t), 1.5, 1e-9);
    inj.apply({0, FaultKind::ReceiverDegrade, t, 2.5});
    EXPECT_NEAR(inj.marginDbOf(t), -1.0, 1e-9);
    EXPECT_TRUE(net.channel(2, 3).down());
}

TEST(FaultInjector, StatsAndTraceInstantEventsSurface)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    TraceSink trace;
    FaultSchedule sched;
    const FaultTarget t = FaultTarget::channel(0, 1);
    sched.add(100, FaultKind::ChannelKill, t);
    sched.add(200, FaultKind::Repair, t);
    FaultInjector inj(sim, net, sched, &trace, 7);
    inj.arm();

    net.setRetryPolicy({10 * tickNs, 2});
    int dropped = 0;
    net.setDropHandler([&](const Message &) { ++dropped; });
    sim.events().schedule(150, [&net] {
        Message m;
        m.src = 0;
        m.dst = 1;
        net.inject(m);
    }, "test.inject");
    sim.run();

    // The packet hit the killed channel, backed off 10 ns, and the
    // repair at t=200 let the retry through.
    EXPECT_EQ(dropped, 0);
    EXPECT_EQ(net.retriedPackets(), 1u);
    EXPECT_EQ(net.stats().delivered.value(), 1u);

    const StatRegistry &reg = sim.telemetry();
    ASSERT_TRUE(reg.has("fault.injected"));
    EXPECT_DOUBLE_EQ(reg.value("fault.injected"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("fault.repairs"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("fault.links_down"), 0.0);
    EXPECT_DOUBLE_EQ(reg.value("fault.min_margin_db"), 4.0);

    ASSERT_EQ(trace.size(), 2u);
    for (const TraceEvent &ev : trace.events()) {
        EXPECT_EQ(ev.ph, TraceEvent::Phase::Instant);
        EXPECT_EQ(ev.cat, "fault");
        EXPECT_EQ(ev.pid, 7u);
        EXPECT_NE(ev.name.find("net.pt2pt.ch0_1"), std::string::npos);
    }
    EXPECT_EQ(trace.events()[0].ts, 100u);
    EXPECT_EQ(trace.events()[1].ts, 200u);
}

TEST(FaultInjector, CoherenceRetriesThenCompletesAfterRepair)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    net.setDropHandler([](const Message &) {});
    net.applyLinkHealth(0, 1, {true, 1.0});

    CoherenceEngine eng(sim, net, false);
    eng.setResilience({true, 500 * tickNs, 3});

    int completions = 0;
    eng.startSynthetic(0, 1, CoherenceOp::GetS, {},
                       [&](TxnId, Tick) { ++completions; });
    // Repair the requester->home channel before the first timeout
    // fires at t=500 ns, so the one retry sails through.
    sim.events().schedule(300 * tickNs, [&net] {
        net.applyLinkHealth(0, 1, {false, 1.0});
    }, "test.repair");
    sim.run();

    EXPECT_EQ(completions, 1);
    EXPECT_EQ(eng.retriedTransactions(), 1u);
    EXPECT_EQ(eng.abortedTransactions(), 0u);
    EXPECT_EQ(eng.inFlight(), 0u);
}

TEST(FaultInjector, CoherenceAbortsAfterRetryExhaustion)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    net.setDropHandler([](const Message &) {});
    net.applyLinkHealth(0, 1, {true, 1.0}); // permanently dead

    CoherenceEngine eng(sim, net, false);
    eng.setResilience({true, 100 * tickNs, 2});

    int completions = 0;
    eng.startSynthetic(0, 1, CoherenceOp::GetS, {},
                       [&](TxnId, Tick) { ++completions; });
    sim.run();

    // The abort still fires the completion callback so closed-loop
    // drivers drain, but counts as aborted, not completed.
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(eng.retriedTransactions(), 2u);
    EXPECT_EQ(eng.abortedTransactions(), 1u);
    EXPECT_EQ(eng.transactionsCompleted(), 0u);
    EXPECT_EQ(eng.inFlight(), 0u);
}

TEST(FaultInjector, MessagePassingToleratesLoss)
{
    Simulator sim;
    PointToPointNetwork net(sim, simulatedConfig());
    net.applyLinkHealth(0, 1, {true, 1.0});

    MpiWorkloadSpec spec;
    spec.collective = Collective::HaloExchange;
    spec.iterations = 3;
    spec.tolerateLoss = true;
    MessagePassingSystem mpi(sim, net, spec);
    const MpiResult res = mpi.run();

    // Site 0 -> 1 is a halo neighbour pair; its message is lost every
    // iteration, yet every iteration still completes.
    EXPECT_EQ(res.iterations, 3u);
    EXPECT_EQ(res.lost, 3u);
    EXPECT_GT(res.runtime, 0u);
    EXPECT_EQ(net.droppedPackets(), 3u);
}

/** One availability cell of the resilience sweep, as a fingerprint. */
struct CellPrint
{
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t retried = 0;
    double minMargin = 0.0;

    bool
    operator==(const CellPrint &o) const
    {
        return delivered == o.delivered && dropped == o.dropped
            && retried == o.retried && minMargin == o.minMargin;
    }
};

std::vector<CellPrint>
runFaultSweep(std::size_t jobs)
{
    std::vector<SweepJob<CellPrint>> sweep;
    for (int cell = 0; cell < 4; ++cell) {
        sweep.push_back(SweepJob<CellPrint>{
            "cell" + std::to_string(cell), [cell] {
                const std::uint64_t seed = deriveSeed(
                    7, "fault-sweep", std::to_string(cell));
                Simulator sim(seed);
                PointToPointNetwork net(sim, simulatedConfig());
                net.setRetryPolicy({50 * tickNs, 4});
                RandomFaultConfig cfg;
                cfg.events = 12;
                cfg.horizon = 3000 * tickNs;
                FaultInjector inj(
                    sim, net,
                    FaultSchedule::random(seed, cfg, net));
                inj.arm();
                InjectorConfig traffic;
                traffic.load = 0.05;
                traffic.warmup = 500 * tickNs;
                traffic.window = 2500 * tickNs;
                traffic.seed = seed;
                runOpenLoop(sim, net, traffic);
                return CellPrint{net.stats().delivered.value(),
                                 net.droppedPackets(),
                                 net.retriedPackets(),
                                 inj.minMarginDb()};
            }});
    }
    return SweepRunner(jobs, false).run("fault-sweep",
                                        std::move(sweep));
}

TEST(FaultSweep, BitIdenticalForAnyJobsCount)
{
    const std::vector<CellPrint> serial = runFaultSweep(1);
    const std::vector<CellPrint> parallel = runFaultSweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
    // Faults actually bit: something was dropped or retried, or a
    // margin dipped below the healthy 4 dB, in at least one cell.
    bool bit = false;
    for (const CellPrint &c : serial)
        bit = bit || c.dropped > 0 || c.retried > 0
            || c.minMargin < 4.0;
    EXPECT_TRUE(bit);
}


// ------------------------------------- margins vs photonics reference

/** Accumulated soft degradation of one channel, replayed alongside
 *  the injector so the test can price it independently. */
struct Degradation
{
    double droopDb = 0.0;
    double dropDb = 0.0;
    double wgDb = 0.0;
    double rxDb = 0.0;
    bool killed = false;

    void
    apply(const FaultEvent &ev)
    {
        switch (ev.kind) {
          case FaultKind::LaserDroop:
            droopDb += ev.magnitudeDb;
            break;
          case FaultKind::RingDrift:
            dropDb += ev.magnitudeDb;
            break;
          case FaultKind::WaveguideCreep:
            wgDb += ev.magnitudeDb;
            break;
          case FaultKind::ReceiverDegrade:
            rxDb += ev.magnitudeDb;
            break;
          case FaultKind::ChannelKill:
            killed = true;
            break;
          case FaultKind::Repair:
            *this = Degradation{};
            break;
          case FaultKind::SiteKill:
            break;
        }
    }

    /** The section 2 budget through the photonics object path. */
    double
    referenceMarginDb() const
    {
        return canonicalUnswitchedLink()
            .deratedPath(Decibel(dropDb + wgDb))
            .margin(launchPower - Decibel(droopDb),
                    receiverSensitivity + Decibel(rxDb))
            .value();
    }
};

/** Every link's margin and the down / derated counters must equal
 *  what the photonics reference implies for @p state — margins bit
 *  for bit, not within a tolerance. */
void
expectMatchesReference(const FaultInjector &inj,
                       const std::vector<std::pair<SiteId, SiteId>> &links,
                       const std::vector<Degradation> &state)
{
    std::uint64_t down = 0;
    std::uint64_t derated = 0;
    for (std::size_t i = 0; i < links.size(); ++i) {
        const double ref = state[i].referenceMarginDb();
        EXPECT_EQ(inj.marginDbOf(FaultTarget::channel(links[i].first,
                                                      links[i].second)),
                  ref)
            << "link " << i;
        if (state[i].killed || ref < 0.0)
            ++down;
        else if (ref < FaultInjector::derateThreshold.value())
            ++derated;
    }
    EXPECT_EQ(inj.linksDown(), down);
    EXPECT_EQ(inj.linksDerated(), derated);
}

TEST(FaultMarginFold, FuzzedStatesMatchPhotonicsReference)
{
    setQuiet(true);
    Simulator sim;
    auto net = makeNetworkFor(NetSel::PointToPoint, sim, simulatedConfig());
    FaultInjector inj(sim, *net, FaultSchedule{});
    const auto links = net->faultableLinks();
    std::vector<Degradation> state(links.size());

    std::mt19937_64 rng(1234);
    std::uniform_real_distribution<double> mag(0.05, 6.0);
    const FaultKind kinds[] = {
        FaultKind::LaserDroop,   FaultKind::RingDrift,
        FaultKind::WaveguideCreep, FaultKind::ReceiverDegrade,
        FaultKind::ChannelKill,  FaultKind::Repair,
    };
    double min_seen = Degradation{}.referenceMarginDb();
    for (int step = 0; step < 400; ++step) {
        const std::size_t li = rng() % links.size();
        FaultEvent ev;
        ev.kind = kinds[rng() % std::size(kinds)];
        ev.target = FaultTarget::channel(links[li].first,
                                         links[li].second);
        ev.magnitudeDb = mag(rng);
        inj.apply(ev);
        state[li].apply(ev);
        const double ref = state[li].referenceMarginDb();
        EXPECT_EQ(inj.marginDbOf(ev.target), ref) << "step " << step;
        min_seen = ref < min_seen ? ref : min_seen;
    }
    expectMatchesReference(inj, links, state);
    EXPECT_EQ(inj.minMarginDb(), min_seen);
}

TEST(FaultMarginFold, KillAllRepairAllMatchesPhotonicsReference)
{
    setQuiet(true);
    Simulator sim;
    auto net = makeNetworkFor(NetSel::TokenRing, sim, simulatedConfig());
    FaultInjector inj(sim, *net, FaultSchedule{});
    const auto links = net->faultableLinks();
    std::vector<Degradation> state(links.size());

    // Drift every bundle into the derate band, kill them all, then
    // repair them all: the counters walk derated -> down -> healthy
    // and the repair zeroes every channel's degradation.
    for (const FaultKind kind : {FaultKind::RingDrift,
                                 FaultKind::ChannelKill,
                                 FaultKind::Repair}) {
        for (std::size_t i = 0; i < links.size(); ++i) {
            FaultEvent ev;
            ev.kind = kind;
            ev.target = FaultTarget::channel(links[i].first,
                                             links[i].second);
            ev.magnitudeDb = 3.0;
            inj.apply(ev);
            state[i].apply(ev);
        }
        SCOPED_TRACE(faultKindName(kind));
        expectMatchesReference(inj, links, state);
    }
    EXPECT_EQ(inj.linksDown(), 0u);
    EXPECT_EQ(inj.linksDerated(), 0u);
    EXPECT_EQ(inj.repairs(), links.size());
    Degradation drifted;
    drifted.dropDb = 3.0;
    EXPECT_EQ(inj.minMarginDb(), drifted.referenceMarginDb());
}

// -------------------------------------------- degraded arbitration

constexpr std::uint32_t degradedMaxAttempts = 3;

/**
 * A short uniform open-loop cell on @p id with @p masked links at
 * half width and @p dead links down, under a bounded retry policy.
 * After the drain every injected packet is accounted for, and —
 * health being static — every retry belongs to a packet that went on
 * to exhaust its attempts and drop. Returns the network's stats.
 */
NetworkStats
runDegradedCell(NetSel id, double load,
                const std::vector<std::pair<SiteId, SiteId>> &masked,
                const std::vector<std::pair<SiteId, SiteId>> &dead,
                Network::Handler observer = {})
{
    Simulator sim(17);
    auto net = makeNetworkFor(id, sim, simulatedConfig());
    RetryPolicy retry;
    retry.backoffBase = 16;
    retry.maxAttempts = degradedMaxAttempts;
    net->setRetryPolicy(retry);
    LinkHealth half;
    half.bandwidthFraction = 0.5;
    for (const auto &[a, b] : masked)
        EXPECT_TRUE(net->applyLinkHealth(a, b, half));
    LinkHealth down;
    down.down = true;
    for (const auto &[a, b] : dead)
        EXPECT_TRUE(net->applyLinkHealth(a, b, down));
    net->setDeliveryObserver(std::move(observer));

    InjectorConfig cfg;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.load = load;
    cfg.warmup = 200 * tickNs;
    cfg.window = 800 * tickNs;
    cfg.seed = 17;
    (void)runOpenLoop(sim, *net, cfg);

    const NetworkStats &s = net->stats();
    EXPECT_TRUE(sim.events().empty());
    EXPECT_GT(s.delivered.value(), 0u);
    EXPECT_EQ(s.injected.value(),
              s.delivered.value() + s.dropped.value());
    EXPECT_EQ(s.retries.value(),
              (degradedMaxAttempts - 1) * s.dropped.value());
    if (!dead.empty()) {
        EXPECT_GT(s.dropped.value(), 0u);
    }
    return s;
}

TEST(DegradedArbitration, DeadAndMaskedChannelsConservePackets)
{
    setQuiet(true);
    for (const NetSel id : {NetSel::TokenRing, NetSel::TwoPhase}) {
        SCOPED_TRACE(netDisplayName(id));
        Simulator probe;
        const auto links =
            makeNetworkFor(id, probe, simulatedConfig())->faultableLinks();
        // A third of the channels at half width, another third dead.
        std::vector<std::pair<SiteId, SiteId>> masked, dead;
        for (std::size_t i = 0; i < links.size(); ++i) {
            if (i % 3 == 1)
                masked.push_back(links[i]);
            else if (i % 3 == 2)
                dead.push_back(links[i]);
        }
        runDegradedCell(id, 0.1, masked, dead);
    }
}

TEST(DegradedArbitration, SingleLiveChannelConservesPackets)
{
    setQuiet(true);
    // Every channel but the first is dead: the grant scan and slot
    // evaluation collapse to the 1-of-N extreme while drops dominate.
    for (const NetSel id : {NetSel::TokenRing, NetSel::TwoPhase}) {
        SCOPED_TRACE(netDisplayName(id));
        Simulator probe;
        const auto links =
            makeNetworkFor(id, probe, simulatedConfig())->faultableLinks();
        const std::vector<std::pair<SiteId, SiteId>> dead(
            links.begin() + 1, links.end());
        const NetworkStats s =
            runDegradedCell(id, 0.05, {}, dead);
        EXPECT_GT(s.dropped.value(), s.delivered.value());
    }
}

TEST(DegradedArbitration, MaskedTokenRingBundleHoldsAtMaskedWidth)
{
    setQuiet(true);
    // Mask every other destination bundle to half its wavelengths:
    // the sender's token hold (reported as the packet's
    // serialization) is the serialization time at the width the
    // bundle has left.
    const std::uint32_t full = simulatedConfig().rxPerSite;
    std::vector<std::pair<SiteId, SiteId>> masked;
    for (SiteId d = 0; d < simulatedConfig().siteCount(); d += 2)
        masked.emplace_back(d, d);
    std::uint64_t masked_seen = 0;
    std::uint64_t full_seen = 0;
    runDegradedCell(
        NetSel::TokenRing, 0.1, masked, {},
        [&](const Message &m) {
            if (m.src == m.dst)
                return; // electrical loopback, no bundle
            const bool is_masked = m.dst % 2 == 0;
            const std::uint32_t width = is_masked ? full / 2 : full;
            EXPECT_EQ(m.serialization,
                      OpticalChannel(width, 0).serialization(m.bytes));
            ++(is_masked ? masked_seen : full_seen);
        });
    EXPECT_GT(masked_seen, 0u);
    EXPECT_GT(full_seen, 0u);
}

} // namespace
