#include "net/hermes.hh"

#include <algorithm>

#include "photonics/link_budget.hh"
#include "sim/logging.hh"

namespace macrosim
{

HermesNetwork::HermesNetwork(Simulator &sim,
                             const MacrochipConfig &config,
                             const HermesParams &params)
    : Network(sim, config),
      clusterRows_(std::min(std::max(params.clusterRows, 1u),
                            config.rows)),
      clusterCols_(std::min(std::max(params.clusterCols, 1u),
                            config.cols)),
      hop_(geometry().ringHopDelay()),
      interfaceOverhead_(config.clockPeriod),
      routerLatency_(config.clockPeriod),
      clusterOf_(config.siteCount()),
      ringPos_(config.siteCount())
{
    ringLambdas_ = params.ringLambdas != 0
        ? params.ringLambdas
        : 2 * config.wavelengthsPerWaveguide
            * clusterRows_ * clusterCols_;
    bridgeLambdas_ = params.bridgeLambdas != 0
        ? params.bridgeLambdas
        : 2 * config.wavelengthsPerWaveguide;

    // Ragged ceil-tiling: a grid that the tile does not divide keeps
    // smaller edge clusters rather than orphaning sites.
    const std::uint32_t tiles_across =
        (config.cols + clusterCols_ - 1) / clusterCols_;
    const std::uint32_t tiles_down =
        (config.rows + clusterRows_ - 1) / clusterRows_;
    const std::uint32_t n_clusters = tiles_across * tiles_down;
    members_.resize(n_clusters);

    for (SiteId s = 0; s < config.siteCount(); ++s) {
        const SiteCoord c = geometry().coordOf(s);
        clusterOf_[s] = (c.row / clusterRows_) * tiles_across
            + (c.col / clusterCols_);
    }

    // Serpentine ring order within each cluster tile, so consecutive
    // ring positions are physically adjacent sites and one ring hop
    // is one site pitch.
    for (std::uint32_t cl = 0; cl < n_clusters; ++cl) {
        const std::uint32_t tile_row = cl / tiles_across;
        const std::uint32_t tile_col = cl % tiles_across;
        const std::uint32_t r0 = tile_row * clusterRows_;
        const std::uint32_t c0 = tile_col * clusterCols_;
        const std::uint32_t r1 =
            std::min(r0 + clusterRows_, config.rows);
        const std::uint32_t c1 =
            std::min(c0 + clusterCols_, config.cols);
        for (std::uint32_t r = r0; r < r1; ++r) {
            if ((r - r0) % 2 == 0) {
                for (std::uint32_t c = c0; c < c1; ++c)
                    members_[cl].push_back(
                        geometry().idOf({r, c}));
            } else {
                for (std::uint32_t c = c1; c > c0; --c)
                    members_[cl].push_back(
                        geometry().idOf({r, c - 1}));
            }
        }
        for (std::uint32_t i = 0;
             i < members_[cl].size(); ++i) {
            ringPos_[members_[cl][i]] = i;
        }
    }

    gateways_.reserve(n_clusters);
    for (std::uint32_t cl = 0; cl < n_clusters; ++cl) {
        if (members_[cl].empty())
            fatal("HermesNetwork: empty cluster ", cl);
        gateways_.push_back(members_[cl].front());
    }
    gatewayDead_.assign(n_clusters, false);

    rings_.reserve(n_clusters);
    for (std::uint32_t cl = 0; cl < n_clusters; ++cl)
        rings_.emplace_back(ringLambdas_, 0);

    bridges_.reserve(static_cast<std::size_t>(n_clusters)
                     * n_clusters);
    for (std::uint32_t a = 0; a < n_clusters; ++a) {
        for (std::uint32_t b = 0; b < n_clusters; ++b) {
            const Tick prop = a == b ? 0
                : geometry().propagationDelay(gateways_[a],
                                              gateways_[b]);
            bridges_.emplace_back(bridgeLambdas_, prop);
        }
    }

    // A bridge lands its arrivals in order. A ring lands each packet
    // `hops` ring hops after its serialization ends, so its arrivals
    // are in order only within one hop count: one FIFO per bridge,
    // then one per (ring, hop count).
    ringHopClasses_ = maxClusterSize();
    useArrivalFifos(bridges_.size()
                    + static_cast<std::size_t>(n_clusters)
                        * ringHopClasses_);
    primeEnergyModel();
    registerTelemetry();
}

std::uint32_t
HermesNetwork::ringHops(SiteId src, SiteId dst) const
{
    const std::uint32_t n = clusterSize(clusterOf_[src]);
    const std::uint32_t from = ringPos_[src];
    const std::uint32_t to = ringPos_[dst];
    return ((to + n - from - 1) % n) + 1;
}

std::uint32_t
HermesNetwork::maxClusterSize() const
{
    std::uint32_t m = 0;
    for (const auto &cl : members_)
        m = std::max(m, static_cast<std::uint32_t>(cl.size()));
    return m;
}

double
HermesNetwork::ringLossDb() const
{
    // Every broadcast wavelength passes the off-resonance modulator
    // rings of all cluster members (0.1 dB each) and is power-split
    // 1:N so every member's receiver taps it. Both terms scale with
    // the cluster, not the macrochip — HERMES's scaling claim.
    const double n = static_cast<double>(maxClusterSize());
    return 0.1 * n + Decibel::fromLinear(n).value();
}

std::vector<std::pair<SiteId, SiteId>>
HermesNetwork::faultableLinks() const
{
    std::vector<std::pair<SiteId, SiteId>> links;
    const std::uint32_t n = clusterCount();
    links.reserve(static_cast<std::size_t>(n) * n);
    for (std::uint32_t cl = 0; cl < n; ++cl)
        links.emplace_back(gateways_[cl], gateways_[cl]);
    for (std::uint32_t a = 0; a < n; ++a)
        for (std::uint32_t b = 0; b < n; ++b)
            if (a != b)
                links.emplace_back(gateways_[a], gateways_[b]);
    return links;
}

bool
HermesNetwork::applyLinkHealth(SiteId a, SiteId b,
                               const LinkHealth &health)
{
    if (a >= config().siteCount() || b >= config().siteCount())
        return false;
    const std::uint32_t ca = clusterOf_[a];
    const std::uint32_t cb = clusterOf_[b];
    if (gateways_[ca] != a || gateways_[cb] != b)
        return false;

    OpticalChannel &ch =
        a == b ? rings_[ca] : bridgeAt(ca, cb);
    const std::uint32_t width =
        a == b ? ringLambdas_ : bridgeLambdas_;
    ch.setDown(health.down);
    if (health.bandwidthFraction >= 1.0) {
        ch.maskWavelengths(width);
    } else {
        ch.maskWavelengths(static_cast<std::uint32_t>(
            static_cast<double>(width)
            * health.bandwidthFraction + 0.5));
    }
    return true;
}

bool
HermesNetwork::applySiteHealth(SiteId site, bool dead)
{
    if (site >= config().siteCount())
        return false;
    const std::uint32_t cl = clusterOf_[site];
    if (gateways_[cl] != site)
        return false;
    gatewayDead_[cl] = dead;
    return true;
}

void
HermesNetwork::route(Message msg)
{
    const std::uint32_t cs = clusterOf_[msg.src];
    const std::uint32_t cd = clusterOf_[msg.dst];

    if (cs == cd) {
        // One serialized broadcast on the shared cluster ring; the
        // destination's drop filters peel the packet off after the
        // forward ring walk. The shared medium gives every member
        // the same global transmission order.
        OpticalChannel &ring = rings_[cs];
        if (ring.down()) {
            dropPacket(std::move(msg), "cluster ring down");
            return;
        }
        msg.serialization = ring.serialization(msg.bytes);
        const std::uint32_t hops = ringHops(msg.src, msg.dst);
        transmitOn(ring, ringFifo(cs, hops), now() + interfaceOverhead_,
                   hops * hop_ + interfaceOverhead_, msg, Leg::Deliver);
        return;
    }

    if (gatewayDead_[cs] || gatewayDead_[cd]) {
        dropPacket(std::move(msg), "gateway router dead");
        return;
    }
    if (bridgeAt(cs, cd).down()) {
        dropPacket(std::move(msg), "inter-cluster bridge down");
        return;
    }

    if (msg.src == gateways_[cs]) {
        bridgeLeg(std::move(msg));
        return;
    }

    // First leg: broadcast to the source cluster's gateway.
    OpticalChannel &ring = rings_[cs];
    if (ring.down()) {
        dropPacket(std::move(msg), "cluster ring down");
        return;
    }
    msg.serialization = ring.serialization(msg.bytes);
    const std::uint32_t hops = ringHops(msg.src, gateways_[cs]);
    transmitOn(ring, ringFifo(cs, hops), now() + interfaceOverhead_,
               hops * hop_ + interfaceOverhead_, msg, Leg::Bridge);
}

void
HermesNetwork::runLeg(Leg leg, Message msg, std::uint32_t arg)
{
    if (leg == Leg::Bridge)
        bridgeLeg(std::move(msg));
    else if (leg == Leg::Ring)
        destinationRingLeg(std::move(msg));
    else
        Network::runLeg(leg, std::move(msg), arg);
}

void
HermesNetwork::bridgeLeg(Message msg)
{
    const std::uint32_t cs = clusterOf_[msg.src];
    const std::uint32_t cd = clusterOf_[msg.dst];
    // Re-check: the bridge or a gateway may have failed while the
    // packet crossed the source ring.
    if (gatewayDead_[cs] || gatewayDead_[cd]) {
        dropPacket(std::move(msg), "gateway router dead");
        return;
    }
    OpticalChannel &bridge = bridgeAt(cs, cd);
    if (bridge.down()) {
        dropPacket(std::move(msg), "inter-cluster bridge down");
        return;
    }

    // O-E-O at the source gateway, then the point-to-point flight to
    // the destination gateway.
    energy().countRouterHop(msg.bytes);
    ++bridged_;
    const Leg next = msg.dst == gateways_[cd] ? Leg::Deliver : Leg::Ring;
    transmitOn(bridge, bridgeIndex(cs, cd), now() + routerLatency_,
               interfaceOverhead_, msg, next);
}

void
HermesNetwork::destinationRingLeg(Message msg)
{
    const std::uint32_t cd = clusterOf_[msg.dst];
    OpticalChannel &ring = rings_[cd];
    if (ring.down()) {
        dropPacket(std::move(msg), "cluster ring down");
        return;
    }
    // O-E-O at the destination gateway, then the final broadcast.
    energy().countRouterHop(msg.bytes);
    const std::uint32_t hops = ringHops(gateways_[cd], msg.dst);
    transmitOn(ring, ringFifo(cd, hops), now() + routerLatency_,
               hops * hop_ + interfaceOverhead_, msg, Leg::Deliver);
}

void
HermesNetwork::registerStats(StatRegistry &registry,
                             const std::string &prefix)
{
    Network::registerStats(registry, prefix);
    registry.add(prefix + ".bridged", [this] {
        return static_cast<double>(bridged_);
    });
    registry.add(prefix + ".ring_occupancy", [this] {
        const Tick t = now();
        if (t == 0 || rings_.empty())
            return 0.0;
        double busy = 0.0;
        for (const OpticalChannel &r : rings_)
            busy += static_cast<double>(r.busyTicks());
        return busy / static_cast<double>(t)
            / static_cast<double>(rings_.size());
    });
    registry.add(prefix + ".bridge_occupancy", [this] {
        const Tick t = now();
        const std::size_t n = clusterCount();
        if (t == 0 || n < 2)
            return 0.0;
        double busy = 0.0;
        for (const OpticalChannel &b : bridges_)
            busy += static_cast<double>(b.busyTicks());
        return busy / static_cast<double>(t)
            / static_cast<double>(n * (n - 1));
    });
}

ComponentCounts
HermesNetwork::componentCounts() const
{
    // Rings: every member both modulates and (broadcast) listens to
    // its cluster's full ring width. Bridges: one Tx/Rx bank per
    // ordered gateway pair. Gateways forward electronically, so each
    // cluster contributes one router and no optical switches exist
    // anywhere — the topology's hardware pitch.
    ComponentCounts c;
    std::uint64_t ring_members = 0;
    for (const auto &cl : members_)
        ring_members += cl.size();
    const std::uint64_t n = clusterCount();
    const std::uint64_t pairs = n * (n > 0 ? n - 1 : 0);

    c.transmitters = ring_members * ringLambdas_
        + pairs * bridgeLambdas_;
    c.receivers = c.transmitters;
    const std::uint64_t wdm = config().wavelengthsPerWaveguide;
    const std::uint64_t ring_guides =
        (ringLambdas_ + wdm - 1) / wdm * 2; // loop + return
    const std::uint64_t bridge_guides =
        (bridgeLambdas_ + wdm - 1) / wdm;
    c.waveguides = n * ring_guides + pairs * bridge_guides;
    c.electronicRouters = n;
    return c;
}

std::vector<LaserPowerSpec>
HermesNetwork::opticalPower() const
{
    // The ring budget pays the broadcast split and ring passes of one
    // *cluster*; the bridge budget is plain un-switched links. Total
    // circulating wavelengths are per-cluster, not per-site-pair, so
    // the laser budget stays flat as the grid grows.
    const std::uint64_t n = clusterCount();
    const std::uint64_t pairs = n * (n > 0 ? n - 1 : 0);
    std::vector<LaserPowerSpec> specs;
    specs.push_back(LaserPowerSpec{
        "Hermes Ring", n * ringLambdas_,
        lossFactorFromExtraLoss(Decibel(ringLossDb()))});
    if (pairs > 0) {
        specs.push_back(LaserPowerSpec{
            "Hermes Bridge", pairs * bridgeLambdas_, 1.0});
    }
    return specs;
}

OpticalPath
HermesNetwork::worstCaseLink() const
{
    // Two physical link classes: a broadcast wavelength spans at most
    // one cluster tile (derated by the split and ring passes), a
    // bridge wavelength spans the whole chip un-switched. The gate
    // assesses whichever is lossier at this scale point.
    const OpticalPath ring =
        unswitchedLinkFor(clusterRows_, clusterCols_,
                          config().sitePitchCm)
            .deratedPath(Decibel(ringLossDb()));
    const OpticalPath bridge =
        unswitchedLinkFor(config().rows, config().cols,
                          config().sitePitchCm);
    return ring.totalLoss() > bridge.totalLoss() ? ring : bridge;
}

} // namespace macrosim
