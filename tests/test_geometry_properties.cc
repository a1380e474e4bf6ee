/**
 * @file
 * Randomized property tests for the R x C generalization: geometry
 * monotonicity, directory interleaving, balanced memory-port
 * placement, link-budget scaling, and full reachability on every
 * network (the paper's five plus hermes) at arbitrary grid shapes.
 *
 * Grids are drawn from a fixed-seed Rng so failures reproduce; the
 * analytic properties range over [1..24]^2 (the scaling study's
 * envelope), the simulated ones over small grids where exhaustive
 * all-pairs traffic is cheap.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "harness.hh"
#include "photonics/link_budget.hh"
#include "sim/random.hh"

namespace
{

using namespace macrosim;
using namespace macrosim::bench;

std::uint32_t
randomDim(Rng &rng)
{
    return 1 + static_cast<std::uint32_t>(rng.below(24));
}

TEST(GeometryProperties, RouteLengthsAreSymmetricManhattan)
{
    Rng rng(101);
    for (int iter = 0; iter < 20; ++iter) {
        const std::uint32_t rows = randomDim(rng);
        const std::uint32_t cols = randomDim(rng);
        const MacrochipGeometry g(rows, cols);
        const SiteId a = static_cast<SiteId>(rng.below(g.siteCount()));
        const SiteId b = static_cast<SiteId>(rng.below(g.siteCount()));
        EXPECT_DOUBLE_EQ(g.routeLengthCm(a, b), g.routeLengthCm(b, a));
        EXPECT_LE(g.routeLengthCm(a, b), g.worstCaseRouteCm());
        // Propagation delay is exactly the waveguide flight time of
        // the Manhattan route — no hidden constants.
        EXPECT_EQ(g.propagationDelay(a, b),
                  MacrochipGeometry::waveguideDelay(
                      g.routeLengthCm(a, b)));
        const SiteCoord ca = g.coordOf(a);
        const SiteCoord cb = g.coordOf(b);
        const double manhattan = g.sitePitchCm()
            * (std::abs(static_cast<int>(ca.row)
                        - static_cast<int>(cb.row))
               + std::abs(static_cast<int>(ca.col)
                          - static_cast<int>(cb.col)));
        EXPECT_DOUBLE_EQ(g.routeLengthCm(a, b), manhattan);
    }
}

TEST(GeometryProperties, WorstCaseRouteGrowsMonotonically)
{
    // Growing either grid dimension never shortens the worst route,
    // the hop delay across it, or the serpentine ring.
    Rng rng(102);
    for (int iter = 0; iter < 20; ++iter) {
        const std::uint32_t rows = randomDim(rng);
        const std::uint32_t cols = randomDim(rng);
        const MacrochipGeometry g(rows, cols);
        const MacrochipGeometry taller(rows + 1, cols);
        const MacrochipGeometry wider(rows, cols + 1);
        EXPECT_GT(taller.worstCaseRouteCm(), g.worstCaseRouteCm());
        EXPECT_GT(wider.worstCaseRouteCm(), g.worstCaseRouteCm());
        EXPECT_GT(taller.ringLengthCm(), g.ringLengthCm());
        EXPECT_GE(taller.ringRoundTrip(), g.ringRoundTrip());
        // Corner-to-corner flight time tracks the worst route.
        const SiteId far_corner = g.siteCount() - 1;
        EXPECT_EQ(g.propagationDelay(0, far_corner),
                  MacrochipGeometry::waveguideDelay(
                      g.worstCaseRouteCm()));
    }
}

TEST(GeometryProperties, UnswitchedLinkLossGrowsWithTheGrid)
{
    // The generalized worst-case link loses more as either dimension
    // grows (longer waveguide, more drop-filter passes) and anchors
    // to the paper's canonical 17 dB budget at 8x8.
    EXPECT_NEAR(unswitchedLinkFor(8, 8).totalLoss().value(),
                unswitchedLinkBudget.value(), 1e-9);
    Rng rng(103);
    for (int iter = 0; iter < 20; ++iter) {
        const std::uint32_t rows = randomDim(rng);
        const std::uint32_t cols = randomDim(rng);
        const Decibel loss = unswitchedLinkFor(rows, cols).totalLoss();
        EXPECT_GT(unswitchedLinkFor(rows + 1, cols).totalLoss().value(),
                  loss.value());
        EXPECT_GT(unswitchedLinkFor(rows, cols + 1).totalLoss().value(),
                  loss.value());
        // More loss can only shrink the feasibility margin.
        EXPECT_LE(assessLink(unswitchedLinkFor(rows + 1, cols + 1))
                      .margin.value(),
                  assessLink(unswitchedLinkFor(rows, cols))
                      .margin.value());
    }
}

TEST(GeometryProperties, DirectoryHomesInterleaveBijectively)
{
    // Line interleaving: one period of consecutive line addresses
    // lands on every site exactly once, for any site count, and the
    // mapping is periodic in the site count.
    Rng rng(104);
    for (int iter = 0; iter < 20; ++iter) {
        const std::uint32_t rows = randomDim(rng);
        const std::uint32_t cols = randomDim(rng);
        const std::uint32_t n = rows * cols;
        const std::uint32_t line = 64;
        const Directory dir(n);
        std::vector<int> hits(n, 0);
        const Addr base =
            static_cast<Addr>(rng.below(1 << 20)) * line;
        for (std::uint32_t i = 0; i < n; ++i) {
            const Addr addr = base + static_cast<Addr>(i) * line;
            const SiteId home = dir.homeSite(addr, line);
            ASSERT_LT(home, n);
            ++hits[home];
            // Same line, any byte offset: same home.
            EXPECT_EQ(dir.homeSite(addr + line / 2, line), home);
            // One full period later: same home again.
            EXPECT_EQ(dir.homeSite(
                          addr + static_cast<Addr>(n) * line, line),
                      home);
        }
        for (std::uint32_t s = 0; s < n; ++s)
            EXPECT_EQ(hits[s], 1) << rows << "x" << cols
                                  << " site " << s;
    }
}

TEST(GeometryProperties, MemoryPortPlacementIsBalanced)
{
    // A fixed port budget spreads across any grid with per-site
    // counts differing by at most one, and the per-site base offsets
    // tile [0, total) contiguously — no port shared, none lost.
    Rng rng(105);
    for (int iter = 0; iter < 20; ++iter) {
        const std::uint32_t rows = randomDim(rng);
        const std::uint32_t cols = randomDim(rng);
        MacrochipConfig cfg = scaledConfig(rows, cols);
        cfg.memoryPortsTotal =
            1 + static_cast<std::uint32_t>(rng.below(192));
        ASSERT_EQ(cfg.memoryPortCount(), cfg.memoryPortsTotal);

        const std::uint32_t n = cfg.siteCount();
        std::uint32_t total = 0;
        std::uint32_t lo = cfg.memoryPortsAt(0);
        std::uint32_t hi = lo;
        for (SiteId s = 0; s < n; ++s) {
            const std::uint32_t at = cfg.memoryPortsAt(s);
            lo = std::min(lo, at);
            hi = std::max(hi, at);
            EXPECT_EQ(cfg.memoryPortBase(s), total);
            total += at;
        }
        EXPECT_EQ(total, cfg.memoryPortsTotal);
        EXPECT_LE(hi - lo, 1u);
    }
}

TEST(GeometryProperties, EverySiteReachableOnEveryNetwork)
{
    // All-pairs delivery on random small grids, for all six
    // networks. This is the end-to-end invariant the R x C
    // generalization must preserve: no topology strands a site at
    // any shape, square or not.
    Rng rng(106);
    for (int iter = 0; iter < 4; ++iter) {
        const std::uint32_t rows =
            1 + static_cast<std::uint32_t>(rng.below(5));
        const std::uint32_t cols =
            1 + static_cast<std::uint32_t>(rng.below(5));
        const MacrochipConfig cfg = scaledConfig(rows, cols);
        const std::uint32_t n = cfg.siteCount();
        for (const NetSel id : extendedNetworks) {
            Simulator sim(7);
            auto net = makeNetworkFor(id, sim, cfg);
            std::map<std::uint64_t, int> seen;
            net->setDefaultHandler([&](const Message &m) {
                ++seen[m.cookie];
            });
            for (SiteId src = 0; src < n; ++src) {
                for (SiteId dst = 0; dst < n; ++dst) {
                    Message m;
                    m.src = src;
                    m.dst = dst;
                    m.bytes = 64;
                    m.cookie =
                        static_cast<std::uint64_t>(src) * 1024 + dst;
                    net->inject(m);
                }
            }
            sim.run();
            EXPECT_EQ(seen.size(),
                      static_cast<std::size_t>(n) * n)
                << netDisplayName(id) << " on " << rows << "x" << cols;
            for (const auto &[cookie, count] : seen) {
                EXPECT_EQ(count, 1)
                    << netDisplayName(id) << " on " << rows << "x" << cols
                    << " cookie " << cookie;
            }
        }
    }
}

TEST(GeometryProperties, ScaledConfigAnchorsToTheSeedAt8x8)
{
    // The generalization is anchored: scaledConfig(8, 8) must be the
    // paper's Table 4 system, bit for bit, so every golden table and
    // figure rides the same code path it always did.
    const MacrochipConfig seed = simulatedConfig();
    const MacrochipConfig gen = scaledConfig(8, 8);
    EXPECT_EQ(gen.rows, seed.rows);
    EXPECT_EQ(gen.cols, seed.cols);
    EXPECT_EQ(gen.txPerSite, seed.txPerSite);
    EXPECT_EQ(gen.rxPerSite, seed.rxPerSite);
    EXPECT_EQ(gen.wavelengthsPerWaveguide,
              seed.wavelengthsPerWaveguide);
    EXPECT_DOUBLE_EQ(gen.sitePitchCm, seed.sitePitchCm);
    EXPECT_EQ(gen.clockPeriod, seed.clockPeriod);
}

TEST(GeometryProperties, FeasibilityVerdictsAtTheScalingPoints)
{
    // The scaling study's headline, pinned as a property: at 24x24
    // the flat broadcast and switched fabrics blow the launch-power
    // ceiling while the point-to-point family and hermes still close.
    Simulator sim;
    const MacrochipConfig big = scaledConfig(24, 24);
    const std::map<NetSel, bool> expected = {
        {NetSel::TokenRing, false},
        {NetSel::CircuitSwitched, false},
        {NetSel::TwoPhase, false},
        {NetSel::PointToPoint, true},
        {NetSel::LimitedPtToPt, true},
        {NetSel::Hermes, true},
    };
    for (const auto &[id, feasible] : expected) {
        auto net = makeNetworkFor(id, sim, big);
        const LinkFeasibility f = net->feasibility();
        EXPECT_EQ(f.feasible, feasible) << netDisplayName(id);
        EXPECT_NEAR(f.margin.value(),
                    maxLaunchPower.value() - f.requiredLaunch.value(),
                    1e-9);
    }
    // And everything closes at the paper's own scale.
    for (const NetSel id : extendedNetworks) {
        auto net = makeNetworkFor(id, sim, simulatedConfig());
        EXPECT_TRUE(net->feasibility().feasible) << netDisplayName(id);
    }
}

} // namespace
