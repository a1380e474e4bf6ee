/**
 * @file
 * Tests for the MOESI coherence engine: synthetic message sequences
 * (the LS/MS mix machinery) and directory-mode state transitions.
 */

#include <gtest/gtest.h>

#include <optional>

#include "net/pt2pt.hh"
#include "workloads/coherence.hh"

namespace
{

using namespace macrosim;

struct CoherenceFixture : public ::testing::Test
{
    CoherenceFixture()
        : sim(3), net(sim, simulatedConfig())
    {}

    /** Run one synthetic transaction to completion. */
    Tick
    runSynthetic(CoherenceEngine &eng, SiteId req, SiteId home,
                 CoherenceOp op, const std::vector<SiteId> &sharers)
    {
        std::optional<Tick> latency;
        eng.startSynthetic(req, home, op, sharers,
                           [&](TxnId, Tick lat) { latency = lat; });
        sim.run();
        EXPECT_TRUE(latency.has_value());
        return latency.value_or(0);
    }

    Simulator sim;
    PointToPointNetwork net;
};

TEST_F(CoherenceFixture, GetSWithoutSharersFetchesFromMemory)
{
    CoherenceEngine eng(sim, net, false);
    const Tick lat = runSynthetic(eng, 0, 9, CoherenceOp::GetS, {});
    // Request + data reply.
    EXPECT_EQ(eng.messagesSent(), 2u);
    EXPECT_EQ(eng.transactionsCompleted(), 1u);
    // Latency covers two network crossings, the directory lookup and
    // the 50 ns memory access.
    const auto &cfg = net.config();
    EXPECT_GT(lat, cfg.directoryLatency + cfg.memoryLatency);
    EXPECT_LT(lat, cfg.directoryLatency + cfg.memoryLatency
                       + 100 * tickNs);
}

TEST_F(CoherenceFixture, GetSWithSharerForwardsFromOwner)
{
    CoherenceEngine eng(sim, net, false);
    const Tick lat = runSynthetic(eng, 0, 9, CoherenceOp::GetS, {20});
    // Request, forward, data: three messages, no memory access.
    EXPECT_EQ(eng.messagesSent(), 3u);
    const auto &cfg = net.config();
    EXPECT_LT(lat, cfg.memoryLatency + cfg.directoryLatency
                       + 60 * tickNs);
}

TEST_F(CoherenceFixture, GetMWithThreeSharersCollectsAcks)
{
    CoherenceEngine eng(sim, net, false);
    runSynthetic(eng, 0, 9, CoherenceOp::GetM, {20, 30, 40});
    // Request + forward-to-owner + 2 invalidates + 2 acks + data.
    EXPECT_EQ(eng.messagesSent(), 7u);
    EXPECT_EQ(eng.transactionsCompleted(), 1u);
    EXPECT_EQ(eng.inFlight(), 0u);
}

TEST_F(CoherenceFixture, UpgradeInvalidatesAllSharers)
{
    CoherenceEngine eng(sim, net, false);
    runSynthetic(eng, 0, 9, CoherenceOp::Upgrade, {20, 30});
    // Request + 2 invalidates + 2 acks + grant.
    EXPECT_EQ(eng.messagesSent(), 6u);
    EXPECT_EQ(eng.transactionsCompleted(), 1u);
}

TEST_F(CoherenceFixture, PutMIsTwoMessages)
{
    CoherenceEngine eng(sim, net, false);
    runSynthetic(eng, 7, 9, CoherenceOp::PutM, {});
    EXPECT_EQ(eng.messagesSent(), 2u);
}

TEST_F(CoherenceFixture, OpLatencyAccumulatorTracksCompletions)
{
    CoherenceEngine eng(sim, net, false);
    runSynthetic(eng, 0, 9, CoherenceOp::GetS, {});
    runSynthetic(eng, 1, 10, CoherenceOp::GetS, {5});
    EXPECT_EQ(eng.opLatencyNs().count(), 2u);
    EXPECT_GT(eng.opLatencyNs().mean(), 0.0);
}

TEST_F(CoherenceFixture, ConcurrentTransactionsAllComplete)
{
    CoherenceEngine eng(sim, net, false);
    int done = 0;
    for (SiteId s = 0; s < 32; ++s) {
        eng.startSynthetic(s, (s + 11) % 64, CoherenceOp::GetM,
                           {(s + 20) % 64, (s + 40) % 64},
                           [&](TxnId, Tick) { ++done; });
    }
    sim.run();
    EXPECT_EQ(done, 32);
    EXPECT_EQ(eng.inFlight(), 0u);
}

// ---------------------------------------------------------------------
// Directory mode.

struct DirectoryFixture : public CoherenceFixture
{
    DirectoryFixture() : eng(sim, net, true) {}

    /** Run one access to completion; returns false on an L2 hit. */
    bool
    access(SiteId site, Addr addr, MemOp op)
    {
        bool completed = false;
        const auto txn = eng.startAccess(site, addr, op,
                                         [&](TxnId, Tick) {
                                             completed = true;
                                         });
        if (!txn.has_value())
            return false;
        sim.run();
        EXPECT_TRUE(completed);
        return true;
    }

    /**
     * Every access past the hit paths is one L2 miss that starts a
     * transaction or coalesces onto one, and each writeback starts a
     * PutM: sum of arch.siteN.l2.misses == txn.started -
     * txn.writebacks + txn.coalesced.
     */
    void
    expectMissesMatchTransactions()
    {
        const StatRegistry &reg = sim.telemetry();
        double misses = 0;
        for (SiteId s = 0; s < net.config().siteCount(); ++s) {
            misses += reg.value("arch.site" + std::to_string(s)
                                + ".l2.misses");
        }
        EXPECT_GT(misses, 0.0);
        EXPECT_EQ(misses, reg.value("arch.txn.started")
                              - reg.value("arch.txn.writebacks")
                              + reg.value("arch.txn.coalesced"));
    }

    CoherenceEngine eng;
};

TEST_F(DirectoryFixture, FirstReadInstallsExclusive)
{
    // MOESI E: a read with no other copies is granted Exclusive, so
    // a later local write upgrades silently.
    EXPECT_TRUE(access(3, 0x4000, MemOp::Read));
    EXPECT_EQ(eng.l2(3).probe(0x4000), CacheState::Exclusive);
    // Second read is a pure L2 hit: no transaction.
    EXPECT_FALSE(access(3, 0x4000, MemOp::Read));
    EXPECT_EQ(eng.transactionsCompleted(), 1u);
    // And the silent E -> M write upgrade costs no transaction.
    EXPECT_FALSE(access(3, 0x4000, MemOp::Write));
    EXPECT_EQ(eng.l2(3).probe(0x4000), CacheState::Modified);
}

TEST_F(DirectoryFixture, SecondReaderDemotesToShared)
{
    ASSERT_TRUE(access(3, 0x4000, MemOp::Read)); // Exclusive
    ASSERT_TRUE(access(5, 0x4000, MemOp::Read));
    // The clean Exclusive owner is demoted to Shared (it can no
    // longer upgrade silently); the reader gets Shared.
    EXPECT_EQ(eng.l2(3).probe(0x4000), CacheState::Shared);
    EXPECT_EQ(eng.l2(5).probe(0x4000), CacheState::Shared);
}

TEST_F(DirectoryFixture, WriteMissInstallsModified)
{
    EXPECT_TRUE(access(3, 0x4000, MemOp::Write));
    EXPECT_EQ(eng.l2(3).probe(0x4000), CacheState::Modified);
    // Write hit afterwards: silent.
    EXPECT_FALSE(access(3, 0x4000, MemOp::Write));
}

TEST_F(DirectoryFixture, ReadAfterRemoteWriteForwardsFromOwner)
{
    ASSERT_TRUE(access(3, 0x4000, MemOp::Write));
    const std::uint64_t msgs_before = eng.messagesSent();
    ASSERT_TRUE(access(5, 0x4000, MemOp::Read));
    // Request + forward + data (owner supplies the line).
    EXPECT_EQ(eng.messagesSent() - msgs_before, 3u);
    // MOESI: previous owner keeps an Owned copy, reader gets Shared.
    EXPECT_EQ(eng.l2(3).probe(0x4000), CacheState::Owned);
    EXPECT_EQ(eng.l2(5).probe(0x4000), CacheState::Shared);
}

TEST_F(DirectoryFixture, WriteInvalidatesAllSharers)
{
    ASSERT_TRUE(access(3, 0x4000, MemOp::Write)); // owner
    ASSERT_TRUE(access(5, 0x4000, MemOp::Read));  // sharer
    ASSERT_TRUE(access(6, 0x4000, MemOp::Read));  // sharer
    ASSERT_TRUE(access(9, 0x4000, MemOp::Write)); // new owner
    EXPECT_EQ(eng.l2(9).probe(0x4000), CacheState::Modified);
    EXPECT_FALSE(eng.l2(3).probe(0x4000).has_value());
    EXPECT_FALSE(eng.l2(5).probe(0x4000).has_value());
    EXPECT_FALSE(eng.l2(6).probe(0x4000).has_value());
}

TEST_F(DirectoryFixture, WriteHitOnSharedUsesUpgrade)
{
    ASSERT_TRUE(access(3, 0x4000, MemOp::Read));
    ASSERT_TRUE(access(5, 0x4000, MemOp::Read));
    const std::uint64_t msgs_before = eng.messagesSent();
    // Site 3 writes its Shared copy: upgrade, invalidating site 5.
    ASSERT_TRUE(access(3, 0x4000, MemOp::Write));
    EXPECT_EQ(eng.l2(3).probe(0x4000), CacheState::Modified);
    EXPECT_FALSE(eng.l2(5).probe(0x4000).has_value());
    // Upgrade request + invalidate + ack + grant; no 72 B data.
    EXPECT_EQ(eng.messagesSent() - msgs_before, 4u);
    expectMissesMatchTransactions();
}

TEST_F(DirectoryFixture, CapacityEvictionsEmitWritebacks)
{
    // Write far more distinct lines than the 256 KB L2 holds; dirty
    // victims must generate PutM traffic. Each write is followed by a
    // read of the same line, which coalesces onto the pending GetM.
    const std::uint32_t lines = 8192; // 512 KB worth of lines
    for (std::uint32_t i = 0; i < lines; ++i) {
        for (const MemOp op : {MemOp::Write, MemOp::Read})
            eng.startAccess(0, static_cast<Addr>(i) * 64, op, nullptr);
    }
    sim.run();
    EXPECT_GT(eng.writebacks(), 0u);
    EXPECT_EQ(eng.coalescedAccesses(), lines);
    EXPECT_EQ(eng.inFlight(), 0u);
    expectMissesMatchTransactions();
}

} // namespace
