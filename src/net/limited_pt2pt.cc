#include "net/limited_pt2pt.hh"

#include <cstring>
#include <limits>

#include "sim/logging.hh"

namespace macrosim
{

namespace
{

constexpr std::uint32_t noChannel =
    std::numeric_limits<std::uint32_t>::max();

} // namespace

LimitedPointToPointNetwork::LimitedPointToPointNetwork(
        Simulator &sim, const MacrochipConfig &config)
    : Network(sim, config),
      lambdas_(config.wavelengthsPerWaveguide),
      interfaceOverhead_(config.clockPeriod),
      routerLatency_(config.clockPeriod),
      failedRouters_(config.siteCount(), false),
      channelOf_(static_cast<std::size_t>(config.siteCount())
                     * config.siteCount(),
                 noChannel)
{
    // A site's peers share its row or its column: walk them in
    // destination order, flight times by distance.
    const MacrochipGeometry &g = geometry();
    const std::vector<Tick> flight = g.flightTimes();
    const auto n = config.siteCount();
    channels_.reserve(static_cast<std::size_t>(n)
                      * (g.rows() + g.cols() - 2));
    for (SiteId s = 0; s < n; ++s) {
        const std::uint32_t sr = s / g.cols(), sc = s % g.cols();
        std::uint32_t *row = &channelOf_[static_cast<std::size_t>(s) * n];
        for (std::uint32_t dr = 0; dr < g.rows(); ++dr) {
            for (std::uint32_t dc = 0; dc < g.cols(); ++dc) {
                if ((dr == sr) == (dc == sc))
                    continue; // itself, or neither row nor column
                row[dr * g.cols() + dc] =
                    static_cast<std::uint32_t>(channels_.size());
                channels_.emplace_back(
                    lambdas_, flight[MacrochipGeometry::hops(sr, dr)
                                     + MacrochipGeometry::hops(sc, dc)]);
            }
        }
    }
    // One FIFO per channel, shared by its deliveries and forward legs:
    // each lands interfaceOverhead_ after the channel does.
    useArrivalFifos(channels_.size());
    primeEnergyModel();
    registerTelemetry();
}

void
LimitedPointToPointNetwork::registerStats(StatRegistry &registry,
                                          const std::string &prefix)
{
    Network::registerStats(registry, prefix);
    registry.add(prefix + ".forwarded", [this] {
        return static_cast<double>(forwarded_);
    });
    registry.add(prefix + ".rerouted", [this] {
        return static_cast<double>(rerouted_);
    });
    registry.add(prefix + ".occupancy", [this] {
        const Tick t = now();
        if (t == 0 || channels_.empty())
            return 0.0;
        // An integer sum, so the channel order cannot change it.
        Tick busy = 0;
        for (const OpticalChannel &ch : channels_)
            busy += ch.busyTicks();
        return static_cast<double>(busy) / static_cast<double>(t)
            / static_cast<double>(channels_.size());
    });
}

std::uint32_t
LimitedPointToPointNetwork::peerIndex(SiteId src, SiteId dst) const
{
    const std::uint32_t ci =
        channelOf_[static_cast<std::size_t>(src) * config().siteCount()
                   + dst];
    if (ci == noChannel)
        panic("LimitedPointToPoint: no direct channel ", src, "->",
              dst);
    return ci;
}

SiteId
LimitedPointToPointNetwork::forwarderFor(SiteId src, SiteId dst) const
{
    // The row-to-column router of the site at (src row, dst column)
    // is a peer of both endpoints. (The symmetric choice through
    // (dst row, src column) would use the column-to-row router; the
    // paper does not specify a policy, so we route row-first.)
    const SiteCoord s = geometry().coordOf(src);
    const SiteCoord d = geometry().coordOf(dst);
    return geometry().idOf({s.row, d.col});
}

SiteId
LimitedPointToPointNetwork::alternateForwarderFor(SiteId src,
                                                  SiteId dst) const
{
    const SiteCoord s = geometry().coordOf(src);
    const SiteCoord d = geometry().coordOf(dst);
    return geometry().idOf({d.row, s.col});
}

void
LimitedPointToPointNetwork::failSiteRouters(SiteId site)
{
    if (site >= config().siteCount())
        fatal("failSiteRouters: site ", site, " out of range");
    failedRouters_[site] = true;
}

std::vector<std::pair<SiteId, SiteId>>
LimitedPointToPointNetwork::faultableLinks() const
{
    std::vector<std::pair<SiteId, SiteId>> links;
    const auto n = config().siteCount();
    for (SiteId s = 0; s < n; ++s)
        for (SiteId d = 0; d < n; ++d)
            if (s != d && arePeers(s, d))
                links.emplace_back(s, d);
    return links;
}

bool
LimitedPointToPointNetwork::applyLinkHealth(SiteId a, SiteId b,
                                            const LinkHealth &health)
{
    if (a == b || a >= config().siteCount()
        || b >= config().siteCount() || !arePeers(a, b)) {
        return false;
    }
    OpticalChannel &ch = peerChannel(a, b);
    ch.setDown(health.down);
    ch.maskWavelengths(static_cast<std::uint32_t>(
        static_cast<double>(lambdas_) * health.bandwidthFraction + 0.5));
    return true;
}

bool
LimitedPointToPointNetwork::applySiteHealth(SiteId site, bool dead)
{
    if (site >= config().siteCount())
        return false;
    failedRouters_[site] = dead;
    return true;
}

bool
LimitedPointToPointNetwork::forwarderUsable(SiteId src, SiteId via,
                                            SiteId dst)
{
    return !failedRouters_[via] && !peerChannel(src, via).down()
        && !peerChannel(via, dst).down();
}

void
LimitedPointToPointNetwork::route(Message msg)
{
    if (arePeers(msg.src, msg.dst)) {
        const std::uint32_t ci = peerIndex(msg.src, msg.dst);
        OpticalChannel &ch = channels_[ci];
        if (ch.down()) {
            dropPacket(std::move(msg), "peer channel down");
            return;
        }
        msg.serialization = ch.serialization(msg.bytes);
        transmitOn(ch, ci, now() + interfaceOverhead_,
                   interfaceOverhead_, msg, Leg::Deliver);
        return;
    }

    // Two-hop path through the forwarding peer: optical to the
    // forwarder, O-E, one-cycle electronic route, E-O, optical to the
    // destination. A failed forwarder (dead routers or a dead leg
    // channel) is routed around through the alternate (column-first)
    // intersection site; with both intersections unusable, the pair
    // is disconnected and the packet falls to the drop/retry path.
    SiteId via = forwarderFor(msg.src, msg.dst);
    if (!forwarderUsable(msg.src, via, msg.dst)) {
        via = alternateForwarderFor(msg.src, msg.dst);
        if (!forwarderUsable(msg.src, via, msg.dst)) {
            dropPacket(std::move(msg),
                       "both forwarders for the pair are down");
            return;
        }
        ++rerouted_;
    }
    ++forwarded_;
    const std::uint32_t ci = peerIndex(msg.src, via);
    OpticalChannel &first = channels_[ci];
    msg.serialization = first.serialization(msg.bytes);
    if (!pdesBound()) {
        transmitOn(first, ci, now() + interfaceOverhead_,
                   interfaceOverhead_, msg, Leg::Forward, via);
        return;
    }
    // Bound to PDES, the second leg transmits on the forwarder's
    // channel, which the forwarder's LP owns — ship the hop there,
    // keyed by the packet id so same-tick hops order identically for
    // every partition.
    const Tick at_via = first.transmit(now() + interfaceOverhead_,
                                       msg.bytes);
    chargeOpticalHop(msg);
    static_assert(sizeof(ForwardHop) <= pdesMaxPayload,
                  "forward hop must fit a cross-LP event payload");
    PdesEvent ev;
    ev.when = at_via + interfaceOverhead_;
    ev.key = msg.id;
    ev.apply = &LimitedPointToPointNetwork::applyForward;
    const ForwardHop hop{msg, via};
    std::memcpy(ev.payload, &hop, sizeof(ForwardHop));
    pdesRoute(via, ev, "net.lpt2pt.forward");
}

void
LimitedPointToPointNetwork::runLeg(Leg leg, Message msg,
                                   std::uint32_t arg)
{
    if (leg == Leg::Forward)
        forwardLeg(std::move(msg), arg);
    else
        Network::runLeg(leg, std::move(msg), arg);
}

void
LimitedPointToPointNetwork::applyForward(void *target,
                                         const void *payload)
{
    ForwardHop hop;
    std::memcpy(&hop, payload, sizeof(ForwardHop));
    auto *net = static_cast<LimitedPointToPointNetwork *>(
        static_cast<Network *>(target));
    net->forwardLeg(hop.msg, hop.via);
}

Tick
LimitedPointToPointNetwork::pdesLookahead(std::uint32_t min_bytes) const
{
    // Both cross-LP event kinds — final deliveries and forward hops —
    // pay at least E-O, serialization of min_bytes over a peer
    // channel, one site pitch of flight, and O-E before their
    // timestamp. Masked wavelengths only lengthen serialization.
    return Network::pdesLookahead(min_bytes) + 2 * interfaceOverhead_
        + OpticalChannel(lambdas_, 0).serialization(min_bytes);
}

void
LimitedPointToPointNetwork::forwardLeg(Message msg, SiteId via)
{
    energy().countRouterHop(msg.bytes);
    const std::uint32_t ci = peerIndex(via, msg.dst);
    transmitOn(channels_[ci], ci,
               now() + routerLatency_ + interfaceOverhead_,
               interfaceOverhead_, msg, Leg::Deliver);
}

ComponentCounts
LimitedPointToPointNetwork::componentCounts() const
{
    // Table 6: 8192 Tx / 8192 Rx / 3072 waveguides / 128 electronic
    // 7x7 routers (a row-to-column and a column-to-row router per
    // site).
    ComponentCounts c;
    const std::uint64_t sites = config().siteCount();
    c.transmitters = sites * config().txPerSite;
    c.receivers = sites * config().rxPerSite;
    const std::uint64_t horizontal =
        sites * (config().txPerSite / config().wavelengthsPerWaveguide);
    c.waveguides = horizontal + 2 * horizontal;
    c.electronicRouters = 2 * sites;
    return c;
}

std::vector<LaserPowerSpec>
LimitedPointToPointNetwork::opticalPower() const
{
    // Direct links only, within the un-switched budget: 1x, ~8 W.
    const std::uint64_t lambdas = static_cast<std::uint64_t>(
        config().siteCount()) * config().txPerSite;
    return {LaserPowerSpec{"Limited Pt-to-Pt", lambdas, 1.0}};
}

} // namespace macrosim
