/**
 * @file
 * Parallel-in-model PDES tests: the SPSC channel, keyed event
 * ordering, the horizon protocol itself, and — the property the
 * whole subsystem is built around — bit-identical results for every
 * LP count and worker-thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.hh"
#include "net/limited_pt2pt.hh"
#include "net/pt2pt.hh"
#include "net/token_ring.hh"
#include "net/two_phase.hh"
#include "sim/pdes_scheduler.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/spsc.hh"
#include "sim/telemetry/json.hh"
#include "sim/telemetry/trace.hh"
#include "workloads/packet_injector.hh"

namespace
{

using namespace macrosim;

// ---------------------------------------------------------------- SPSC

template <typename T>
std::vector<T>
drainAll(SpscChannel<T> &ch)
{
    std::vector<T> got;
    const std::uint64_t n =
        ch.drain([&got](const T &v) { got.push_back(v); });
    EXPECT_EQ(n, got.size());
    return got;
}

TEST(Spsc, FifoAcrossPublishes)
{
    SpscChannel<int> ch;
    int next = 0;
    for (int round = 0; round < 3; ++round) {
        // Each round's batch is taken whole, in staging order, and
        // the producer swaps its next batch into the emptied buffer.
        for (int i = 0; i < 8; ++i)
            ch.stage(next++);
        ch.publish();
        const std::vector<int> got = drainAll(ch);
        ASSERT_EQ(got.size(), 8u);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(got[i], round * 8 + i);
    }
    // Two publishes the consumer has not taken: the second appends
    // to the first, and one drain takes both without loss.
    for (int i = 0; i < 100; ++i)
        ch.stage(next++);
    ch.publish();
    for (int i = 0; i < 5; ++i)
        ch.stage(next++);
    ch.publish();
    const std::vector<int> got = drainAll(ch);
    ASSERT_EQ(got.size(), 105u);
    for (int i = 0; i < 105; ++i)
        EXPECT_EQ(got[i], 24 + i);
    EXPECT_TRUE(drainAll(ch).empty());
    EXPECT_EQ(ch.posts(), 129u);
    EXPECT_EQ(ch.peakDepth(), 105u);
}

TEST(Spsc, StagedEntriesStayInvisibleUntilPublished)
{
    SpscChannel<int> ch;
    for (int i = 0; i < 3; ++i)
        ch.stage(i);
    EXPECT_EQ(ch.unpublished(), 3u);
    EXPECT_TRUE(drainAll(ch).empty());
    ch.publish();
    EXPECT_EQ(ch.unpublished(), 0u);
    ch.stage(3);
    // One publish makes the whole batch visible, and only the batch.
    EXPECT_EQ(drainAll(ch), (std::vector<int>{0, 1, 2}));
    for (int i = 4; i < 8; ++i)
        ch.stage(i);
    EXPECT_EQ(ch.unpublished(), 5u);
    EXPECT_TRUE(drainAll(ch).empty());
    ch.publish();
    EXPECT_EQ(ch.unpublished(), 0u);
    EXPECT_EQ(drainAll(ch), (std::vector<int>{3, 4, 5, 6, 7}));
    EXPECT_EQ(ch.posts(), 8u);
}

TEST(Spsc, TwoThreadedStream)
{
    // Random publish batches while the consumer drains concurrently:
    // a publish may swap into a taken buffer or append to a batch
    // not yet taken. Every value must arrive exactly once.
    SpscChannel<std::uint64_t> ch;
    constexpr std::uint64_t n = 20000;
    std::thread producer([&ch] {
        Rng rng(deriveSeed(5, "spsc", "batches"));
        std::uint64_t left = 1 + rng.below(128);
        for (std::uint64_t i = 1; i <= n; ++i) {
            ch.stage(i);
            if (--left == 0) {
                ch.publish();
                left = 1 + rng.below(128);
            }
        }
        ch.publish();
    });
    std::vector<bool> seen(n + 1, false);
    std::uint64_t got = 0, dups = 0;
    while (got < n) {
        got += ch.drain([&seen, &dups](std::uint64_t v) {
            if (seen[v])
                ++dups;
            seen[v] = true;
        });
    }
    producer.join();
    EXPECT_EQ(got, n);
    EXPECT_EQ(dups, 0u);
    EXPECT_EQ(std::count(seen.begin() + 1, seen.end(), true),
              static_cast<std::ptrdiff_t>(n));
    EXPECT_TRUE(drainAll(ch).empty());
    EXPECT_EQ(ch.posts(), n);
}

// -------------------------------------------------------- keyed events

TEST(KeyedEvents, RunAfterPlainEventsOrderedByKey)
{
    Simulator sim;
    std::vector<int> order;
    sim.events().scheduleKeyed(10, 500, [&order] {
        order.push_back(500);
    });
    sim.events().scheduleKeyed(10, 2, [&order] { order.push_back(2); });
    // Plain events of the same tick run first even when scheduled
    // after the keyed ones.
    sim.events().schedule(10, [&order] { order.push_back(-1); });
    sim.events().schedule(5, [&order] { order.push_back(-5); });
    sim.run();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], -5);
    EXPECT_EQ(order[1], -1);
    EXPECT_EQ(order[2], 2);
    EXPECT_EQ(order[3], 500);
}

TEST(KeyedEvents, PeekNextTick)
{
    Simulator sim;
    EXPECT_EQ(sim.nextEventTick(), maxTick);
    sim.events().schedule(42, [] {});
    EXPECT_EQ(sim.nextEventTick(), 42u);
    const EventId id = sim.events().schedule(7, [] {});
    EXPECT_EQ(sim.nextEventTick(), 7u);
    sim.events().cancel(id);
    EXPECT_EQ(sim.nextEventTick(), 42u);
}

// ----------------------------------------------------- horizon protocol

struct PingPongNode
{
    PdesScheduler *sched = nullptr;
    std::uint32_t lp = 0;
    std::uint64_t rounds = 0;
    std::uint64_t received = 0;

    static void
    apply(void *target, const void *payload)
    {
        auto *node = static_cast<PingPongNode *>(target);
        std::uint64_t counter = 0;
        std::memcpy(&counter, payload, sizeof(counter));
        ++node->received;
        node->bounce(counter + 1);
    }

    void
    bounce(std::uint64_t counter)
    {
        if (counter >= rounds)
            return;
        const std::uint32_t other = lp ^ 1u;
        PdesEvent ev;
        ev.when = sched->simOf(lp).now() + sched->lookahead();
        ev.key = counter;
        ev.apply = &PingPongNode::apply;
        ev.target = sched->target(other);
        std::memcpy(ev.payload, &counter, sizeof(counter));
        sched->post(lp, other, ev);
    }
};

TEST(PdesScheduler, PingPongAcrossTwoWorkers)
{
    constexpr std::uint64_t rounds = 400;
    PdesScheduler sched(2, 2);
    sched.setLookahead(10);
    PingPongNode nodes[2];
    for (std::uint32_t i = 0; i < 2; ++i) {
        nodes[i] = PingPongNode{&sched, i, rounds, 0};
        sched.setTarget(i, &nodes[i]);
    }
    sched.simOf(0).events().schedule(0, [&nodes] {
        nodes[0].bounce(0);
    });
    const std::uint64_t executed = sched.run();
    EXPECT_EQ(nodes[0].received + nodes[1].received, rounds);
    EXPECT_EQ(sched.crossPosts(), rounds);
    EXPECT_GE(executed, rounds + 1); // kickoff + every bounce
}

/**
 * Randomized message storm: every LP keeps a quota of messages it
 * fires at random other LPs with random (lookahead-respecting)
 * delays, re-triggered by every arrival. Per-LP execution logs must
 * be identical for any worker-thread count — arrival order is
 * real-time-dependent, execution order must not be.
 */
struct StressNode
{
    PdesScheduler *sched = nullptr;
    std::uint32_t lp = 0;
    std::uint32_t nLps = 0;
    Rng rng{0};
    std::uint64_t budget = 0;
    std::uint64_t seq = 0;
    std::vector<std::pair<Tick, std::uint64_t>> log;

    static void
    apply(void *target, const void *payload)
    {
        auto *node = static_cast<StressNode *>(target);
        std::uint64_t key = 0;
        std::memcpy(&key, payload, sizeof(key));
        node->log.emplace_back(node->sched->simOf(node->lp).now(), key);
        node->sendNext();
    }

    void
    sendNext()
    {
        if (budget == 0)
            return;
        --budget;
        std::uint32_t dst = static_cast<std::uint32_t>(
            rng.below(nLps - 1));
        if (dst >= lp)
            ++dst;
        PdesEvent ev;
        ev.when = sched->simOf(lp).now() + sched->lookahead()
            + rng.below(500);
        ev.key = (static_cast<std::uint64_t>(lp) << 32) | ++seq;
        ev.apply = &StressNode::apply;
        ev.target = sched->target(dst);
        std::memcpy(ev.payload, &ev.key, sizeof(ev.key));
        sched->post(lp, dst, ev);
    }
};

std::vector<std::vector<std::pair<Tick, std::uint64_t>>>
runStress(std::uint32_t lps, std::size_t threads)
{
    PdesScheduler sched(lps, threads);
    sched.setLookahead(25);
    std::vector<StressNode> nodes(lps);
    for (std::uint32_t i = 0; i < lps; ++i) {
        nodes[i].sched = &sched;
        nodes[i].lp = i;
        nodes[i].nLps = lps;
        nodes[i].rng = Rng(deriveSeed(11, "stress", std::to_string(i)));
        nodes[i].budget = 500;
        sched.setTarget(i, &nodes[i]);
    }
    for (std::uint32_t i = 0; i < lps; ++i) {
        StressNode *node = &nodes[i];
        // Staggered kickoff, two initial sends per LP so traffic
        // fans out instead of forming one chain.
        sched.simOf(i).events().schedule(i, [node] {
            node->sendNext();
            node->sendNext();
        });
    }
    sched.run();
    // A chain dies when it lands on a node whose budget is spent, so
    // budgets need not fully drain — but sends and executions must
    // balance: every sent message executes exactly once.
    std::uint64_t unspent = 0, logged = 0;
    for (const auto &node : nodes) {
        unspent += node.budget;
        logged += node.log.size();
    }
    EXPECT_EQ(logged + unspent, static_cast<std::uint64_t>(lps) * 500u);
    std::vector<std::vector<std::pair<Tick, std::uint64_t>>> logs;
    logs.reserve(lps);
    for (auto &node : nodes)
        logs.push_back(std::move(node.log));
    return logs;
}

TEST(PdesScheduler, RandomStormIsThreadCountInvariant)
{
    const auto serial = runStress(4, 1);
    const auto threaded = runStress(4, 4);
    ASSERT_EQ(serial.size(), threaded.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], threaded[i]) << "LP " << i;
        total += serial[i].size();
    }
    EXPECT_GT(total, 1000u); // the storm actually stormed
}

/** Counts the events it receives; the target of a one-shot burst. */
struct BurstSink
{
    std::uint64_t received = 0;
    Tick last = 0;

    static void
    apply(void *target, const void *payload)
    {
        auto *sink = static_cast<BurstSink *>(target);
        Tick when = 0;
        std::memcpy(&when, payload, sizeof(when));
        ++sink->received;
        sink->last = when;
    }
};

TEST(PdesScheduler, LargeBatchTerminatesAndDelivers)
{
    // One event posts 6 000 entries to the other LP in one step: the
    // batch is published with the step and counted in flight before
    // it is visible, and the run must still deliver every post and
    // terminate.
    constexpr std::uint64_t burst = 6000;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        PdesScheduler sched(2, threads);
        sched.setLookahead(10);
        BurstSink sinks[2];
        sched.setTarget(0, &sinks[0]);
        sched.setTarget(1, &sinks[1]);
        sched.simOf(0).events().schedule(5, [&sched] {
            for (std::uint64_t i = 0; i < burst; ++i) {
                PdesEvent ev;
                ev.when = 5 + sched.lookahead() + i % 97;
                ev.key = i;
                ev.apply = &BurstSink::apply;
                ev.target = sched.target(1);
                std::memcpy(ev.payload, &ev.when, sizeof(ev.when));
                sched.post(0, 1, ev);
            }
        });
        const std::uint64_t executed = sched.run();
        EXPECT_EQ(sinks[1].received, burst) << threads << " threads";
        EXPECT_EQ(sinks[0].received, 0u);
        EXPECT_EQ(executed, burst + 1);
        EXPECT_EQ(sched.crossPosts(), burst);
        EXPECT_EQ(sinks[1].last, 5 + sched.lookahead() + 96);
    }
}

TEST(PdesScheduler, PostFromAnOutOfRangeLpPanics)
{
    PdesScheduler sched(2, 1);
    sched.setLookahead(10);
    BurstSink sink;
    PdesEvent ev;
    ev.when = 10;
    ev.apply = &BurstSink::apply;
    ev.target = &sink;
    EXPECT_DEATH(sched.post(2, 1, ev), "bad LP pair 2 -> 1");
}

// --------------------------------------- partitioned injector results

PdesNetworkFactory
pt2ptFactory()
{
    return [](Simulator &sim) -> std::unique_ptr<Network> {
        return std::make_unique<PointToPointNetwork>(
            sim, simulatedConfig());
    };
}

InjectorConfig
pdesCfg(double load, std::uint64_t seed)
{
    InjectorConfig cfg;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.load = load;
    cfg.warmup = 300 * tickNs;
    cfg.window = 1500 * tickNs;
    cfg.seed = seed;
    return cfg;
}

void
expectIdentical(const InjectorResult &a, const InjectorResult &b)
{
    EXPECT_EQ(a.offeredLoadPct, b.offeredLoadPct);
    EXPECT_EQ(a.meanLatencyNs, b.meanLatencyNs);
    EXPECT_EQ(a.maxLatencyNs, b.maxLatencyNs);
    EXPECT_EQ(a.p50LatencyNs, b.p50LatencyNs);
    EXPECT_EQ(a.p99LatencyNs, b.p99LatencyNs);
    EXPECT_EQ(a.deliveredBytesPerNsPerSite, b.deliveredBytesPerNsPerSite);
    EXPECT_EQ(a.deliveredPct, b.deliveredPct);
    EXPECT_EQ(a.measuredPackets, b.measuredPackets);
    EXPECT_EQ(a.overflowPackets, b.overflowPackets);
    EXPECT_EQ(a.offeredMeasuredPct, b.offeredMeasuredPct);
}

TEST(PdesInjector, BitIdenticalAcrossLpAndThreadCounts)
{
    const InjectorConfig cfg = pdesCfg(0.25, 99);
    const PdesInjectorResult base =
        runOpenLoopPdes(pt2ptFactory(), cfg, 1, 1);
    EXPECT_EQ(base.effectiveLps, 1u);
    EXPECT_EQ(base.crossPosts, 0u);
    EXPECT_GT(base.result.measuredPackets, 1000u);
    EXPECT_NEAR(base.result.deliveredPct, 25.0, 3.0);
    // The drift-free arrival clock keeps the realized offered load
    // within the final-truncated-arrival slack of the request.
    EXPECT_NEAR(base.result.offeredMeasuredPct, 25.0, 0.5);

    // 3 LPs: an uneven split (22/21/21 sites). 32 LPs: two sites each
    // on the 8x8 model, 992 LP channels.
    for (const std::uint32_t lps : {2u, 3u, 4u, 8u, 32u}) {
        for (const std::size_t threads : {std::size_t{1},
                                          std::size_t{3}}) {
            const PdesInjectorResult r =
                runOpenLoopPdes(pt2ptFactory(), cfg, lps, threads);
            EXPECT_EQ(r.effectiveLps, lps);
            EXPECT_GT(r.crossPosts, 0u);
            expectIdentical(base.result, r.result);
        }
    }
}

TEST(PdesInjector, ForwardedTopologyIsLpCountInvariant)
{
    // limited_pt2pt ships forwarded packets' second legs to the
    // forwarder's LP — the one cross-LP event kind beyond final
    // deliveries. Uniform traffic on 8x8 forwards ~78% of packets.
    const PdesNetworkFactory factory =
        [](Simulator &sim) -> std::unique_ptr<Network> {
            return std::make_unique<LimitedPointToPointNetwork>(
                sim, simulatedConfig());
        };
    InjectorConfig cfg = pdesCfg(0.10, 7);
    cfg.window = 1200 * tickNs;
    const PdesInjectorResult base = runOpenLoopPdes(factory, cfg, 1, 1);
    EXPECT_GT(base.result.measuredPackets, 500u);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        const PdesInjectorResult r =
            runOpenLoopPdes(factory, cfg, 4, threads);
        EXPECT_EQ(r.effectiveLps, 4u);
        EXPECT_GT(r.crossPosts, 0u);
        expectIdentical(base.result, r.result);
    }
}

TEST(PdesInjector, ColocatedTopologyCollapsesToOneLp)
{
    const PdesNetworkFactory factories[] = {
        [](Simulator &sim) -> std::unique_ptr<Network> {
            return std::make_unique<TokenRingCrossbar>(
                sim, simulatedConfig());
        },
        [](Simulator &sim) -> std::unique_ptr<Network> {
            return std::make_unique<TwoPhaseArbitratedNetwork>(
                sim, simulatedConfig());
        },
    };
    InjectorConfig cfg = pdesCfg(0.02, 21);
    cfg.window = 800 * tickNs;
    for (const PdesNetworkFactory &factory : factories) {
        const PdesInjectorResult a = runOpenLoopPdes(factory, cfg, 4, 4);
        EXPECT_EQ(a.effectiveLps, 1u);
        EXPECT_EQ(a.crossPosts, 0u);
        const PdesInjectorResult b = runOpenLoopPdes(factory, cfg, 1, 1);
        expectIdentical(a.result, b.result);
    }
}

TEST(BatchDifferential, PdesResultsIdenticalAcrossLpCounts)
{
    // The keyed PDES ordering contract must hold for the two-phase
    // slot and channel lanes whether one LP or four run the model.
    InjectorConfig cfg;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.load = 0.05;
    cfg.warmup = 200 * tickNs;
    cfg.window = 600 * tickNs;
    cfg.seed = 23;
    const PdesNetworkFactory factory =
        [](Simulator &sim) -> std::unique_ptr<Network> {
        return std::make_unique<TwoPhaseArbitratedNetwork>(
            sim, simulatedConfig());
    };
    const PdesInjectorResult one =
        runOpenLoopPdes(factory, cfg, /*lps=*/1, /*threads=*/1);
    const PdesInjectorResult four =
        runOpenLoopPdes(factory, cfg, /*lps=*/4, /*threads=*/2);
    EXPECT_GE(four.effectiveLps, 1u);
    expectIdentical(one.result, four.result);
}

TEST(PdesReplica, BoundPointToPointHoldsOnlyItsSourcesRows)
{
    // A striped site -> LP map, not a block one: any map must work.
    const MacrochipConfig cfg = simulatedConfig();
    const std::uint32_t sites = cfg.siteCount();
    std::vector<std::uint32_t> lp_of_site(sites);
    for (std::uint32_t s = 0; s < sites; ++s)
        lp_of_site[s] = s % 3 == 0 ? 0 : 1;
    PdesScheduler sched(2, 1);
    sched.setSitePartition(lp_of_site);
    Simulator ref_sim;
    const PointToPointNetwork whole(ref_sim, cfg);
    EXPECT_EQ(whole.channelCount(),
              static_cast<std::size_t>(sites) * sites);
    std::vector<std::unique_ptr<PointToPointNetwork>> nets;
    for (std::uint32_t lp = 0; lp < 2; ++lp) {
        nets.push_back(std::make_unique<PointToPointNetwork>(
            sched.simOf(lp), cfg));
        nets.back()->bindPdes(sched, lp, 64);
    }
    const std::size_t owned0 = (sites + 2) / 3;
    EXPECT_EQ(nets[0]->channelCount(), owned0 * sites);
    EXPECT_EQ(nets[1]->channelCount(), (sites - owned0) * sites);
    // Every owned pair keeps its own channel.
    for (std::uint32_t s = 0; s < sites; ++s) {
        const PointToPointNetwork &net = *nets[lp_of_site[s]];
        for (std::uint32_t d = 0; d < sites; ++d) {
            EXPECT_EQ(net.channel(s, d).propagation(),
                      whole.channel(s, d).propagation())
                << s << "->" << d;
        }
    }
    EXPECT_DEATH(nets[0]->channel(1, 0), "source 1 is owned by another");
    EXPECT_DEATH(nets[1]->channel(3, 4), "source 3 is owned by another");
    // Fault health for a foreign row is not this replica's to apply.
    EXPECT_FALSE(nets[1]->applyLinkHealth(3, 4, LinkHealth{true, 0.0}));
    EXPECT_TRUE(nets[0]->applyLinkHealth(3, 4, LinkHealth{true, 0.0}));
    EXPECT_TRUE(nets[0]->channel(3, 4).down());
}

TEST(PdesReplica, BoundRowsEqualAnUnboundReplicas)
{
    // Block partitions of odd and square grids, with a remainder: each
    // bound replica's rows are the unbound network's, channel by
    // channel.
    const struct { std::uint32_t rows, cols, lps; } cases[] = {
        {3, 5, 4}, {16, 16, 5}};
    for (const auto &c : cases) {
        SCOPED_TRACE(testing::Message() << c.rows << "x" << c.cols
                                        << " on " << c.lps << " LPs");
        const MacrochipConfig cfg = scaledConfig(c.rows, c.cols);
        Simulator ref_sim;
        const PointToPointNetwork whole(ref_sim, cfg);
        PdesModel model = buildPdesModel(
            [&cfg](Simulator &sim) -> std::unique_ptr<Network> {
                return std::make_unique<PointToPointNetwork>(sim, cfg);
            },
            c.lps, 1, 1, 64);
        ASSERT_EQ(model.effectiveLps, c.lps);
        const SiteId n = cfg.siteCount();
        std::size_t rows_held = 0;
        for (std::uint32_t lp = 0; lp < c.lps; ++lp) {
            const auto &net =
                dynamic_cast<const PointToPointNetwork &>(model.net(lp));
            rows_held += net.channelCount() / n;
            for (SiteId s = 0; s < n; ++s) {
                if (model.sched->lpOfSite(s) != lp)
                    continue;
                for (SiteId d = 0; d < n; ++d) {
                    const OpticalChannel &got = net.channel(s, d);
                    const OpticalChannel &want = whole.channel(s, d);
                    ASSERT_EQ(got.propagation(), want.propagation())
                        << s << "->" << d;
                    ASSERT_EQ(got.wavelengths(), want.wavelengths());
                    ASSERT_EQ(got.activeWavelengths(),
                              want.activeWavelengths());
                }
            }
        }
        EXPECT_EQ(rows_held, std::size_t{n});
    }
}

// ------------------------------------------------- lookahead floor

/** flight over one pitch + E-O + O-E + serializing @p bytes over
 *  @p lambdas wavelengths: the bound the topologies must declare. */
Tick
expectedLookahead(const MacrochipConfig &cfg, std::uint32_t lambdas,
                  std::uint32_t bytes)
{
    return MacrochipGeometry::waveguideDelay(cfg.sitePitchCm)
        + 2 * cfg.clockPeriod
        + OpticalChannel(lambdas, 0).serialization(bytes);
}

TEST(PdesLookahead, PointToPointCountsTheFloorsSerialization)
{
    for (const std::uint32_t side : {8u, 16u, 24u}) {
        const MacrochipConfig cfg = scaledConfig(side, side);
        Simulator sim;
        const PointToPointNetwork net(sim, cfg);
        for (const std::uint32_t bytes : {1u, 8u, 64u}) {
            EXPECT_EQ(net.pdesLookahead(bytes),
                      expectedLookahead(cfg, net.wavelengthsPerChannel(),
                                        bytes))
                << side << "x" << side << ", " << bytes << " B";
        }
    }
    // The 16x16 model's 2-wavelength pair channels.
    Simulator sim;
    const PointToPointNetwork net(sim, scaledConfig(16, 16));
    EXPECT_EQ(net.pdesLookahead(64), 13450u);
    EXPECT_EQ(net.pdesLookahead(8), 2250u);
}

TEST(PdesLookahead, LimitedPointToPointCountsTheFloorsSerialization)
{
    for (const std::uint32_t side : {8u, 16u, 24u}) {
        const MacrochipConfig cfg = scaledConfig(side, side);
        Simulator sim;
        const LimitedPointToPointNetwork net(sim, cfg);
        for (const std::uint32_t bytes : {1u, 8u, 64u}) {
            EXPECT_EQ(net.pdesLookahead(bytes),
                      expectedLookahead(cfg, net.wavelengthsPerChannel(),
                                        bytes))
                << side << "x" << side << ", " << bytes << " B";
        }
    }
    Simulator sim;
    const LimitedPointToPointNetwork net(sim, scaledConfig(16, 16));
    EXPECT_EQ(net.pdesLookahead(64), 3850u);
}

TEST(PdesLookahead, ModelTakesTheWorkloadsFloor)
{
    const PdesNetworkFactory factory =
        [](Simulator &sim) -> std::unique_ptr<Network> {
        return std::make_unique<PointToPointNetwork>(
            sim, scaledConfig(16, 16));
    };
    EXPECT_EQ(buildPdesModel(factory, 2, 1, 1, 64).sched->lookahead(),
              13450u);
    // The default floor of one byte still counts its serialization.
    EXPECT_EQ(buildPdesModel(factory, 2, 1, 1).sched->lookahead(),
              expectedLookahead(scaledConfig(16, 16), 2, 1));
    const PdesInjectorResult r =
        runOpenLoopPdes(pt2ptFactory(), pdesCfg(0.05, 3), 2, 1);
    Simulator sim;
    EXPECT_EQ(r.load.lookahead,
              PointToPointNetwork(sim, simulatedConfig())
                  .pdesLookahead(InjectorConfig{}.packetBytes));
}

TEST(PdesLookahead, InjectBelowTheFloorPanicsAtAnyLpCount)
{
    for (const std::uint32_t lps : {1u, 2u}) {
        PdesModel model = buildPdesModel(pt2ptFactory(), lps, 1, 1, 64);
        Message m;
        m.src = 0;
        m.dst = 1;
        m.bytes = 32;
        EXPECT_DEATH(model.net(0).inject(m), "below the 64-byte floor")
            << lps << " LPs";
        m.bytes = 64;
        model.net(0).inject(m);
        EXPECT_EQ(model.net(0).stats().injected.value(), 1u);
    }
}

// -------------------------------------------------- block partition

TEST(BlockPartition, SingleGroupMapsEverySiteToZero)
{
    const std::vector<std::uint32_t> map =
        PdesScheduler::blockPartition(17, 1);
    ASSERT_EQ(map.size(), 17u);
    for (const std::uint32_t g : map)
        EXPECT_EQ(g, 0u);
}

TEST(BlockPartition, MoreGroupsThanSitesClampsToIdentity)
{
    // lps > sites clamps to one site per LP; effective LP count is
    // the site count, so every group id stays in range.
    const std::vector<std::uint32_t> map =
        PdesScheduler::blockPartition(4, 9);
    ASSERT_EQ(map.size(), 4u);
    for (std::uint32_t s = 0; s < 4; ++s)
        EXPECT_EQ(map[s], s);
}

TEST(BlockPartition, RemainderGoesToLeadingGroups)
{
    // 10 sites over 4 groups: 10 % 4 = 2 leading groups get the
    // extra site -> sizes {3, 3, 2, 2}, contiguous.
    const std::vector<std::uint32_t> expect = {0, 0, 0, 1, 1, 1,
                                               2, 2, 3, 3};
    EXPECT_EQ(PdesScheduler::blockPartition(10, 4), expect);
}

TEST(BlockPartition, ZeroSitesYieldsEmptyMap)
{
    EXPECT_TRUE(PdesScheduler::blockPartition(0, 3).empty());
}

TEST(BlockPartition, ContiguousBalancedBandsProperty)
{
    // The lookahead floor depends on groups being contiguous
    // row-major bands: sweep (sites, lps) and check the map is
    // nondecreasing, every group is non-empty, sizes differ by at
    // most one, and the larger groups come first.
    for (std::uint32_t sites = 1; sites <= 40; ++sites) {
        for (std::uint32_t lps = 1; lps <= 12; ++lps) {
            const std::vector<std::uint32_t> map =
                PdesScheduler::blockPartition(sites, lps);
            ASSERT_EQ(map.size(), sites);
            const std::uint32_t groups = std::min(lps, sites);
            std::vector<std::uint32_t> count(groups, 0);
            for (std::uint32_t s = 0; s < sites; ++s) {
                if (s > 0) {
                    ASSERT_GE(map[s], map[s - 1])
                        << "sites=" << sites << " lps=" << lps;
                    ASSERT_LE(map[s], map[s - 1] + 1);
                }
                ASSERT_LT(map[s], groups);
                ++count[map[s]];
            }
            for (std::uint32_t g = 0; g < groups; ++g) {
                ASSERT_GE(count[g], 1u);
                ASSERT_LE(count[g] - count[groups - 1], 1u);
                if (g > 0) {
                    ASSERT_LE(count[g], count[g - 1]);
                }
            }
        }
    }
}

// ------------------------------------------------ observability

TEST(PdesObservabilityRun, LoadReportTickDomainFieldsAreInvariant)
{
    // Round counts, EOT advances and wall times are real-time
    // diagnostics; everything in the tick domain must be
    // bit-identical for every worker-thread count.
    const InjectorConfig cfg = pdesCfg(0.10, 11);
    const PdesInjectorResult a =
        runOpenLoopPdes(pt2ptFactory(), cfg, 4, 1);
    const PdesInjectorResult b =
        runOpenLoopPdes(pt2ptFactory(), cfg, 4, 3);
    ASSERT_EQ(a.load.lps.size(), 4u);
    ASSERT_EQ(b.load.lps.size(), 4u);
    EXPECT_EQ(a.load.totalExecuted, b.load.totalExecuted);
    EXPECT_EQ(a.load.crossPosts, b.load.crossPosts);
    EXPECT_EQ(a.load.minExecuted, b.load.minExecuted);
    EXPECT_EQ(a.load.maxExecuted, b.load.maxExecuted);
    for (std::uint32_t i = 0; i < 4; ++i) {
        const PdesLpLoad &x = a.load.lps[i];
        const PdesLpLoad &y = b.load.lps[i];
        EXPECT_EQ(x.sites, y.sites);
        EXPECT_EQ(x.executed, y.executed);
        EXPECT_EQ(x.drained, y.drained);
        EXPECT_EQ(x.posts, y.posts);
        EXPECT_EQ(x.consumedTicks, y.consumedTicks);
    }
}

TEST(PdesObservabilityRun, LoadReportInternalConsistency)
{
    const InjectorConfig cfg = pdesCfg(0.10, 13);
    PdesObservability obs;
    obs.timing = true;
    std::string metrics;
    obs.metricsOut = &metrics;
    const PdesInjectorResult r =
        runOpenLoopPdes(pt2ptFactory(), cfg, 4, 2, &obs);
    const PdesLoadReport &load = r.load;
    ASSERT_EQ(load.lps.size(), 4u);
    EXPECT_TRUE(load.timed);
    EXPECT_GT(load.lookahead, 0u);
    EXPECT_EQ(load.totalExecuted, r.eventsExecuted);
    EXPECT_EQ(load.crossPosts, r.crossPosts);
    std::uint64_t executed = 0, drained = 0, posts = 0;
    for (const PdesLpLoad &lp : load.lps) {
        EXPECT_EQ(lp.rounds, lp.progressRounds + lp.blockedRounds);
        EXPECT_GT(lp.rounds, 0u);
        EXPECT_GE(lp.maxRoundExecuted, 1u);
        // Every round is classified somewhere in the wall split.
        EXPECT_GT(lp.busyWallNs(), 0.0);
        executed += lp.executed;
        drained += lp.drained;
        posts += lp.posts;
    }
    EXPECT_EQ(executed, load.totalExecuted);
    // Every cross post is drained by its destination exactly once.
    EXPECT_EQ(posts, load.crossPosts);
    EXPECT_EQ(drained, load.crossPosts);
    EXPECT_GE(load.eventImbalance, 1.0);
    EXPECT_GE(load.blockedFraction, 0.0);
    EXPECT_LE(load.blockedFraction, 1.0);
    EXPECT_LT(load.criticalLp, 4u);
    // The registry dump names every LP and channel subtree.
    EXPECT_NE(metrics.find("pdes.lp0.executed"), std::string::npos);
    EXPECT_NE(metrics.find("pdes.lp3.granted_ticks"),
              std::string::npos);
    EXPECT_NE(metrics.find("pdes.ch0_1.posts"), std::string::npos);
    EXPECT_NE(metrics.find("pdes.ch3_2.peak_depth"),
              std::string::npos);
    // The report prints without tripping any stream state.
    std::ostringstream table;
    load.print(table);
    EXPECT_NE(table.str().find("critical=lp"), std::string::npos);
}

TEST(PdesObservabilityRun, TwoLpsAdvanceOneLookaheadPerStep)
{
    // One worker steps the two LPs in a fixed order. A step that ran
    // to the horizon would leave each LP publishing an EOT two
    // lookaheads past its last one while the other waits (turn
    // taking); a step capped at one lookahead past its first pending
    // tick keeps every advance near one lookahead.
    const PdesInjectorResult r =
        runOpenLoopPdes(pt2ptFactory(), pdesCfg(0.10, 31), 2, 1);
    ASSERT_EQ(r.load.lps.size(), 2u);
    EXPECT_GT(r.load.eotAdvance, 0.0);
    EXPECT_LE(r.load.eotAdvance, 1.2);
    for (const PdesLpLoad &lp : r.load.lps) {
        EXPECT_GT(lp.eotAdvance(r.load.lookahead), 0.0) << "lp" << lp.lp;
        EXPECT_LE(lp.eotAdvance(r.load.lookahead), 1.2) << "lp" << lp.lp;
    }
}

TEST(PdesObservabilityRun, UntimedRunLeavesWallColumnsZero)
{
    const InjectorConfig cfg = pdesCfg(0.05, 17);
    const PdesInjectorResult r =
        runOpenLoopPdes(pt2ptFactory(), cfg, 2, 2);
    EXPECT_FALSE(r.load.timed);
    for (const PdesLpLoad &lp : r.load.lps) {
        EXPECT_EQ(lp.drainWallNs, 0.0);
        EXPECT_EQ(lp.execWallNs, 0.0);
        EXPECT_EQ(lp.blockedWallNs, 0.0);
        EXPECT_GT(lp.rounds, 0u);
    }
}

TEST(PdesObservabilityRun, ProfileFoldsInFixedLpOrder)
{
    const InjectorConfig cfg = pdesCfg(0.05, 19);
    PdesObservability obs;
    obs.profile = true;
    std::string profile;
    obs.profileOut = &profile;
    runOpenLoopPdes(pt2ptFactory(), cfg, 2, 2, &obs);
    const std::size_t lp0 = profile.find("[pdes lp0 event profile]");
    const std::size_t lp1 = profile.find("[pdes lp1 event profile]");
    ASSERT_NE(lp0, std::string::npos);
    ASSERT_NE(lp1, std::string::npos);
    EXPECT_LT(lp0, lp1);
    EXPECT_NE(profile.find("pdes.cross"), std::string::npos);
}

TEST(PdesTraceRun, ByteIdenticalAcrossWorkerThreadCounts)
{
    const InjectorConfig cfg = pdesCfg(0.10, 23);
    const auto capture = [&cfg](std::size_t threads) {
        TraceSink sink;
        PdesObservability obs;
        obs.trace = &sink;
        const PdesInjectorResult r =
            runOpenLoopPdes(pt2ptFactory(), cfg, 4, threads, &obs);
        EXPECT_EQ(r.effectiveLps, 4u);
        std::ostringstream os;
        sink.writeJson(os);
        return os.str();
    };
    const std::string t1 = capture(1);
    const std::string t3 = capture(3);
    EXPECT_EQ(t1, t3) << "trace must not depend on worker timing";
    std::string err;
    EXPECT_TRUE(jsonValid(t1, &err)) << err;
    // The timeline carries the LP rows, horizon spans, the derived
    // counter tracks and sampled cross-LP flow arrows.
    EXPECT_NE(t1.find("\"pdes horizon\""), std::string::npos);
    EXPECT_NE(t1.find("lp0 sites 0..15"), std::string::npos);
    EXPECT_NE(t1.find("\"horizon\""), std::string::npos);
    EXPECT_NE(t1.find("eot.lp0"), std::string::npos);
    EXPECT_NE(t1.find("eit.floor"), std::string::npos);
    EXPECT_NE(t1.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(t1.find("\"ph\":\"f\""), std::string::npos);
}

TEST(PdesTraceRun, SingleLpTraceHasNoFlowsOrEitFloor)
{
    InjectorConfig cfg = pdesCfg(0.05, 29);
    cfg.window = 800 * tickNs;
    TraceSink sink;
    PdesObservability obs;
    obs.trace = &sink;
    runOpenLoopPdes(pt2ptFactory(), cfg, 1, 1, &obs);
    std::ostringstream os;
    sink.writeJson(os);
    const std::string t = os.str();
    std::string err;
    EXPECT_TRUE(jsonValid(t, &err)) << err;
    EXPECT_NE(t.find("\"horizon\""), std::string::npos);
    // No cross-LP machinery on one LP: no arrows, no EIT floor.
    EXPECT_EQ(t.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_EQ(t.find("eit.floor"), std::string::npos);
}

} // namespace
