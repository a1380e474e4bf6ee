/**
 * @file
 * System-level property tests: MOESI single-writer / directory
 * consistency after randomized access storms, network conservation
 * under stress, and bit-exact deterministic replay.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "net/pt2pt.hh"
#include "topology_param.hh"
#include "workloads/coherence.hh"
#include "workloads/patterns.hh"

namespace
{

using namespace macrosim;

// ---------------------------------------------------------------------
// MOESI / directory global invariants.

struct StormFixture : public ::testing::Test
{
    StormFixture()
        : sim(13), net(sim, simulatedConfig()), eng(sim, net, true)
    {}

    /** Random reads/writes from random sites over a line pool. */
    void
    storm(int accesses, std::uint64_t lines, double write_frac,
          std::uint64_t seed)
    {
        Rng rng(seed);
        for (int i = 0; i < accesses; ++i) {
            const SiteId site = static_cast<SiteId>(rng.below(64));
            const Addr addr = rng.below(lines) * 64;
            const MemOp op = rng.chance(write_frac) ? MemOp::Write
                                                    : MemOp::Read;
            eng.startAccess(site, addr, op, nullptr);
            // Occasionally let the system drain to interleave
            // in-flight and quiescent phases.
            if (i % 64 == 63)
                sim.run();
        }
        sim.run();
        ASSERT_EQ(eng.inFlight(), 0u);
    }

    /** Check every directory entry against the actual L2 states. */
    void
    checkInvariants()
    {
        for (SiteId home = 0; home < 64; ++home) {
            eng.directorySlice(home).forEachEntry(
                [&](Addr line, const DirEntry &e) {
                    checkLine(home, line, e);
                });
        }
    }

    void
    checkLine(SiteId home, Addr line, const DirEntry &e)
    {
        // Gather true cache states of this line across all sites.
        int writable = 0; // M or E
        int dirty = 0;    // M or O
        std::map<SiteId, CacheState> holders;
        for (SiteId s = 0; s < 64; ++s) {
            if (const auto st = eng.l2(s).probe(line);
                st.has_value()) {
                holders[s] = *st;
                writable += canWrite(*st);
                dirty += isDirty(*st);
            }
        }

        // Single-writer invariant: never two writable copies, never
        // two dirty owners.
        EXPECT_LE(writable, 1) << "line " << line;
        EXPECT_LE(dirty, 1) << "line " << line;

        // A writable copy anywhere requires the directory to name
        // that site as the exclusive owner.
        for (const auto &[s, st] : holders) {
            if (canWrite(st)) {
                EXPECT_EQ(e.state, DirState::Exclusive)
                    << "line " << line;
                EXPECT_EQ(e.owner, s) << "line " << line;
            }
        }

        // If the directory believes the line is Exclusive, no OTHER
        // site may hold any copy. (The owner itself may have
        // silently evicted a clean line.)
        if (e.state == DirState::Exclusive) {
            for (const auto &[s, st] : holders)
                EXPECT_EQ(s, e.owner) << "line " << line;
        }
        (void)home;
    }

    Simulator sim;
    PointToPointNetwork net;
    CoherenceEngine eng;
};

TEST_F(StormFixture, ReadHeavyStormKeepsInvariants)
{
    storm(4000, 512, 0.1, 7);
    checkInvariants();
}

TEST_F(StormFixture, WriteHeavyStormKeepsInvariants)
{
    storm(4000, 512, 0.7, 8);
    checkInvariants();
}

TEST_F(StormFixture, HotLineStormKeepsInvariants)
{
    // 64 sites hammering 8 lines: maximal invalidation traffic.
    storm(3000, 8, 0.5, 9);
    checkInvariants();
}

TEST_F(StormFixture, CapacityThrashingKeepsInvariants)
{
    // One site writes a working set twice its 4096-line L2:
    // eviction + writeback churn, interleaved with remote readers.
    Rng rng(10);
    for (int i = 0; i < 6000; ++i) {
        const Addr addr = rng.below(8192) * 64;
        eng.startAccess(0, addr, MemOp::Write, nullptr);
        if (i % 16 == 15) {
            eng.startAccess(static_cast<SiteId>(1 + rng.below(63)),
                            addr, MemOp::Read, nullptr);
        }
        if (i % 64 == 63)
            sim.run();
    }
    sim.run();
    ASSERT_EQ(eng.inFlight(), 0u);
    checkInvariants();
    EXPECT_GT(eng.writebacks(), 0u);
}

// ---------------------------------------------------------------------
// Network conservation and determinism under stress.

class NetworkStress : public ::testing::TestWithParam<Topology>
{
};

TEST_P(NetworkStress, RandomStormConservesPackets)
{
    Simulator sim(21);
    auto net = makeNetworkFor(GetParam().net(), sim, simulatedConfig());
    Rng rng(5);

    std::uint64_t delivered_bytes = 0;
    std::uint64_t delivered = 0;
    Tick last_injected = 0;
    net->setDefaultHandler([&](const Message &m) {
        ++delivered;
        delivered_bytes += m.bytes;
        EXPECT_LE(m.created, m.injected);
        EXPECT_LE(m.injected, m.delivered);
    });

    std::uint64_t injected_bytes = 0;
    const int packets = 3000;
    // Inject in bursts spread over time.
    for (int burst = 0; burst < 30; ++burst) {
        sim.events().schedule(
            static_cast<Tick>(burst) * 50 * tickNs, [&, burst] {
                for (int i = 0; i < packets / 30; ++i) {
                    Message m;
                    m.src = static_cast<SiteId>(rng.below(64));
                    m.dst = static_cast<SiteId>(rng.below(64));
                    m.bytes = static_cast<std::uint32_t>(
                        8 + 8 * rng.below(9)); // 8..72 B
                    injected_bytes += m.bytes;
                    net->inject(m);
                    last_injected = sim.now();
                }
            });
    }
    sim.run();

    EXPECT_EQ(delivered, static_cast<std::uint64_t>(packets));
    EXPECT_EQ(delivered_bytes, injected_bytes);
    EXPECT_EQ(net->stats().delivered.value(),
              static_cast<std::uint64_t>(packets));
    EXPECT_EQ(net->stats().bytesDelivered.value(), injected_bytes);
    EXPECT_GE(sim.now(), last_injected);
}

TEST_P(NetworkStress, SameSeedIsBitIdentical)
{
    auto fingerprint = [this] {
        Simulator sim(77);
        auto net =
            makeNetworkFor(GetParam().net(), sim, simulatedConfig());
        Rng rng(3);
        std::uint64_t hash = 1469598103934665603ull;
        net->setDefaultHandler([&](const Message &m) {
            hash ^= m.delivered + m.src * 131 + m.dst;
            hash *= 1099511628211ull;
        });
        for (int i = 0; i < 500; ++i) {
            Message m;
            m.src = static_cast<SiteId>(rng.below(64));
            m.dst = static_cast<SiteId>(rng.below(64));
            net->inject(m);
        }
        sim.run();
        return hash;
    };
    EXPECT_EQ(fingerprint(), fingerprint());
}

TEST_P(NetworkStress, PerPairDeliveryIsFifo)
{
    // Every network must deliver same-(src,dst) packets in injection
    // order: the paper's coherence protocol depends on channel
    // ordering within a virtual network.
    Simulator sim(4);
    auto net = makeNetworkFor(GetParam().net(), sim, simulatedConfig());
    std::map<std::uint64_t, std::uint64_t> last_seq;
    net->setDefaultHandler([&](const Message &m) {
        const std::uint64_t key =
            static_cast<std::uint64_t>(m.src) * 64 + m.dst;
        EXPECT_GT(m.cookie, last_seq[key])
            << "out of order " << m.src << "->" << m.dst;
        last_seq[key] = m.cookie;
    });
    Rng rng(6);
    std::map<std::uint64_t, std::uint64_t> seq;
    for (int i = 0; i < 2000; ++i) {
        Message m;
        m.src = static_cast<SiteId>(rng.below(64));
        m.dst = static_cast<SiteId>(rng.below(64));
        const std::uint64_t key =
            static_cast<std::uint64_t>(m.src) * 64 + m.dst;
        m.cookie = ++seq[key];
        net->inject(m);
    }
    sim.run();
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, NetworkStress,
                         ::testing::ValuesIn(allTopologies()),
                         topologyName);

} // namespace
