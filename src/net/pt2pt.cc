#include "net/pt2pt.hh"

#include "sim/logging.hh"

namespace macrosim
{

PointToPointNetwork::PointToPointNetwork(Simulator &sim,
                                         const MacrochipConfig &config)
    : Network(sim, config),
      lambdas_(config.txPerSite / config.siteCount()),
      interfaceOverhead_(config.clockPeriod)
{
    if (lambdas_ == 0)
        fatal("PointToPointNetwork: fewer transmitters (",
              config.txPerSite, ") than sites (", config.siteCount(),
              ")");

    // Walk each source's destinations by row and column, in site
    // order; a pair's flight time depends only on its distance.
    const MacrochipGeometry &g = geometry();
    const std::vector<Tick> flight = g.flightTimes();
    const auto n = config.siteCount();
    rowOf_.resize(n);
    channels_.reserve(static_cast<std::size_t>(n) * n);
    for (SiteId s = 0; s < n; ++s) {
        rowOf_[s] = s * n;
        const std::uint32_t sr = s / g.cols(), sc = s % g.cols();
        for (std::uint32_t dr = 0; dr < g.rows(); ++dr) {
            const Tick *row = &flight[MacrochipGeometry::hops(sr, dr)];
            for (std::uint32_t dc = 0; dc < g.cols(); ++dc) {
                channels_.emplace_back(
                    lambdas_, row[MacrochipGeometry::hops(sc, dc)]);
            }
        }
    }
    useArrivalFifos(channels_.size());
    primeEnergyModel();
    registerTelemetry();
}

void
PointToPointNetwork::dropForeignState()
{
    // Any site -> LP map works: owned rows are packed in site order
    // into an exact-sized array, and the full one is freed here.
    const auto n = config().siteCount();
    std::size_t rows = 0;
    for (SiteId s = 0; s < n; ++s)
        rows += ownsSite(s) ? 1 : 0;
    if (rows == n)
        return;
    std::vector<OpticalChannel> owned;
    owned.reserve(rows * n);
    for (SiteId s = 0; s < n; ++s) {
        if (!ownsSite(s)) {
            rowOf_[s] = foreignRow;
            continue;
        }
        const auto row = channels_.begin() + rowOf_[s];
        rowOf_[s] = static_cast<std::uint32_t>(owned.size());
        owned.insert(owned.end(), row, row + n);
    }
    channels_ = std::move(owned);
}

void
PointToPointNetwork::registerStats(StatRegistry &registry,
                                   const std::string &prefix)
{
    Network::registerStats(registry, prefix);
    // 4096 per-pair channels is too many columns for a snapshot CSV;
    // report the fleet-mean occupancy (busy time over wall time,
    // averaged across channels) instead. A bound replica averages
    // over the rows it holds.
    registry.add(prefix + ".occupancy", [this] {
        const Tick t = now();
        if (t == 0 || channels_.empty())
            return 0.0;
        double busy = 0.0;
        for (const OpticalChannel &ch : channels_)
            busy += static_cast<double>(ch.busyTicks());
        return busy / static_cast<double>(t)
            / static_cast<double>(channels_.size());
    });
}

const OpticalChannel &
PointToPointNetwork::channel(SiteId src, SiteId dst) const
{
    const auto n = config().siteCount();
    if (src >= n || dst >= n)
        panic("PointToPoint::channel: pair ", src, "->", dst,
              " out of range");
    if (rowOf_[src] == foreignRow) {
        panic("PointToPoint::channel: source ", src, " is owned by "
              "another LP; this replica holds only its own sources' "
              "channels");
    }
    return channels_[channelIndex(src, dst)];
}

std::vector<std::pair<SiteId, SiteId>>
PointToPointNetwork::faultableLinks() const
{
    std::vector<std::pair<SiteId, SiteId>> links;
    const auto n = config().siteCount();
    links.reserve(static_cast<std::size_t>(n) * (n - 1));
    for (SiteId s = 0; s < n; ++s)
        for (SiteId d = 0; d < n; ++d)
            if (s != d)
                links.emplace_back(s, d);
    return links;
}

bool
PointToPointNetwork::applyLinkHealth(SiteId a, SiteId b,
                                     const LinkHealth &health)
{
    if (a >= config().siteCount() || b >= config().siteCount()
        || rowOf_[a] == foreignRow) {
        return false;
    }
    OpticalChannel &ch = channels_[channelIndex(a, b)];
    ch.setDown(health.down);
    ch.maskWavelengths(static_cast<std::uint32_t>(
        static_cast<double>(lambdas_) * health.bandwidthFraction + 0.5));
    return true;
}

Tick
PointToPointNetwork::pdesLookahead(std::uint32_t min_bytes) const
{
    // Every inter-site delivery pays E-O at the source, serialization
    // of at least min_bytes over the pair's channel, at least one
    // site pitch of flight, and O-E at the destination. Channel
    // queueing and masked wavelengths only push arrivals later.
    return Network::pdesLookahead(min_bytes) + 2 * interfaceOverhead_
        + OpticalChannel(lambdas_, 0).serialization(min_bytes);
}

void
PointToPointNetwork::route(Message msg)
{
    // E-O at the source, serialize over the pair's channel, fly to
    // the destination column and down its drop filter, O-E at the
    // receiver. The channel's busy-until scheduling queues back-to-
    // back packets of this pair FIFO, and their arrivals queue in the
    // channel's FIFO.
    const std::uint32_t ci = channelIndex(msg.src, msg.dst);
    OpticalChannel &ch = channels_[ci];
    if (ch.down()) {
        dropPacket(std::move(msg), "pair channel down");
        return;
    }
    msg.serialization = ch.serialization(msg.bytes);
    transmitOn(ch, ci, now() + interfaceOverhead_, interfaceOverhead_,
               msg, Leg::Deliver);
}

ComponentCounts
PointToPointNetwork::componentCounts() const
{
    // Table 6: 8192 Tx, 8192 Rx, 3072 waveguides (1024 horizontal +
    // 2048 vertical: column channels need one waveguide per
    // direction), no switches.
    ComponentCounts c;
    const std::uint64_t sites = config().siteCount();
    c.transmitters = sites * config().txPerSite;
    c.receivers = sites * config().rxPerSite;
    const std::uint64_t horizontal =
        sites * (config().txPerSite / config().wavelengthsPerWaveguide);
    c.waveguides = horizontal + 2 * horizontal;
    return c;
}

std::vector<LaserPowerSpec>
PointToPointNetwork::opticalPower() const
{
    // No component beyond the canonical un-switched link: loss factor
    // 1x, 8192 wavelengths -> ~8 W (Table 5).
    const std::uint64_t lambdas = static_cast<std::uint64_t>(
        config().siteCount()) * config().txPerSite;
    return {LaserPowerSpec{"Point-to-Point", lambdas, 1.0}};
}

} // namespace macrosim
