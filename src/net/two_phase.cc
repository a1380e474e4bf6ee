#include "net/two_phase.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace macrosim
{

TwoPhaseArbitratedNetwork::TwoPhaseArbitratedNetwork(
        Simulator &sim, const MacrochipConfig &config, bool alt,
        const TwoPhaseParams &params)
    : Network(sim, config),
      alt_(alt),
      channelLambdas_(2 * config.wavelengthsPerWaveguide),
      arbSlot_(params.arbSlot),
      switchSetup_(params.switchSetup),
      senderGuard_(params.senderGuard)
{
    rowProp_ = MacrochipGeometry::waveguideDelay(
        static_cast<double>(config.cols - 1) * config.sitePitchCm);
    colProp_ = MacrochipGeometry::waveguideDelay(
        static_cast<double>(config.rows - 1) * config.sitePitchCm);

    notifSer_ = OpticalChannel(1, 0)
        .serialization(params.notificationBytes);

    const std::size_t n_channels =
        static_cast<std::size_t>(config.rows) * config.siteCount();
    chBusyUntil_.assign(n_channels, 0);
    chBusyTicks_.assign(n_channels, 0);
    chLastSender_.assign(n_channels, ~SiteId(0));
    chDown_.assign(n_channels, 0);
    chMasked_.assign(n_channels, 0);
    const std::size_t instances = alt_ ? 2 : 1;
    trees_.resize(static_cast<std::size_t>(config.siteCount())
                  * config.cols * instances);
    notifications_.resize(static_cast<std::size_t>(config.rows)
                          * config.cols * instances);
    // Each shared channel's slots start in strictly increasing order
    // (busy-until commits), so its slot legs queue in one FIFO.
    useArrivalFifos(n_channels);
    primeEnergyModel();
    registerTelemetry();
}

void
TwoPhaseArbitratedNetwork::registerStats(StatRegistry &registry,
                                         const std::string &prefix)
{
    Network::registerStats(registry, prefix);
    registry.add(prefix + ".wasted_slots", [this] {
        return static_cast<double>(wastedSlots_);
    });
    registry.add(prefix + ".occupancy", [this] {
        const Tick t = now();
        if (t == 0 || chBusyTicks_.empty())
            return 0.0;
        double busy = 0.0;
        for (const Tick ticks : chBusyTicks_)
            busy += static_cast<double>(ticks);
        return busy / static_cast<double>(t)
            / static_cast<double>(chBusyTicks_.size());
    });
    registry.add(prefix + ".notif_occupancy", [this] {
        const Tick t = now();
        if (t == 0 || notifications_.empty())
            return 0.0;
        double busy = 0.0;
        for (const BusyResource &n : notifications_)
            busy += static_cast<double>(n.busyTicks());
        return busy / static_cast<double>(t)
            / static_cast<double>(notifications_.size());
    });
}

std::vector<std::pair<SiteId, SiteId>>
TwoPhaseArbitratedNetwork::faultableLinks() const
{
    std::vector<std::pair<SiteId, SiteId>> links;
    links.reserve(static_cast<std::size_t>(config().rows)
                  * config().siteCount());
    for (std::uint32_t row = 0; row < config().rows; ++row)
        for (SiteId d = 0; d < config().siteCount(); ++d)
            links.emplace_back(row, d);
    return links;
}

bool
TwoPhaseArbitratedNetwork::applyLinkHealth(SiteId a, SiteId b,
                                           const LinkHealth &health)
{
    if (a >= config().rows || b >= config().siteCount())
        return false;
    const std::size_t ci =
        static_cast<std::size_t>(a) * config().siteCount() + b;
    chDown_[ci] = health.down ? 1 : 0;
    if (health.bandwidthFraction >= 1.0) {
        chMasked_[ci] = 0;
    } else {
        const auto masked = static_cast<std::uint32_t>(
            static_cast<double>(channelLambdas_)
            * health.bandwidthFraction + 0.5);
        chMasked_[ci] = masked < 1 ? 1 : masked;
    }
    return true;
}

void
TwoPhaseArbitratedNetwork::route(Message msg)
{
    arbitrate(std::move(msg), now());
}

void
TwoPhaseArbitratedNetwork::arbitrate(Message msg, Tick post_time)
{
    // Phase 1: the request goes out in the next 0.4 ns arbitration
    // slot on the row's request waveguide and is snooped by the whole
    // arbitration domain one row-flight later. Every site then runs
    // the same round-robin assignment, which we model by reserving
    // the next free data slot on the shared channel (requests are
    // pipelined, so slots are committed immediately and in request
    // order).
    // A dead shared channel cannot be granted at all; fail the
    // packet into the drop/retry path before arbitration.
    const std::size_t ci = channelIndex(msg.src, msg.dst);
    if (chDown_[ci]) {
        dropPacket(std::move(msg), "shared data channel down");
        return;
    }

    const Tick slot_aligned = post_time % arbSlot_ == 0
        ? post_time
        : post_time + (arbSlot_ - post_time % arbSlot_);
    const Tick seen = slot_aligned + arbSlot_ + rowProp_;

    // Phase 2: the column manager posts the switch request on its
    // pre-assigned wavelength of the destination column's single
    // notification waveguide. Grants from this arbitration domain
    // into this column therefore serialize at one 8 B notification
    // (3.2 ns at 20 Gb/s) apiece — the protocol's grant-rate
    // bottleneck. The ALT variant doubles the transmitters, giving
    // each manager a second notification wavelength.
    const std::uint32_t dst_col = geometry().coordOf(msg.dst).col;
    const std::uint32_t src_row = geometry().coordOf(msg.src).row;
    const std::size_t instances = alt_ ? 2 : 1;
    const std::size_t notif_base =
        (static_cast<std::size_t>(src_row) * config().cols + dst_col)
        * instances;
    std::size_t notif = notif_base;
    for (std::size_t i = 1; i < instances; ++i) {
        if (notifications_[notif_base + i].busyUntil()
            < notifications_[notif].busyUntil())
            notif = notif_base + i;
    }
    const Tick notif_done =
        notifications_[notif].reserve(seen, notifSer_) + notifSer_;

    // The row feed switches, the tree and the destination
    // input-select switch settle before the data slot begins.
    const Tick earliest_data = notif_done + colProp_ + switchSetup_;

    const std::uint32_t width =
        chMasked_[ci] ? chMasked_[ci] : channelLambdas_;
    const Tick ser = OpticalChannel(width, 0).serialization(msg.bytes);
    const bool sender_change = chLastSender_[ci] != msg.src;
    chLastSender_[ci] = msg.src;
    const Tick guard = sender_change ? senderGuard_ : 0;
    // BusyResource::reserve over the SoA lanes: commit the slot on
    // the channel's busy-until line and charge its occupancy.
    const Tick line_start = earliest_data > chBusyUntil_[ci]
        ? earliest_data : chBusyUntil_[ci];
    chBusyUntil_[ci] = line_start + ser + guard;
    chBusyTicks_[ci] += ser + guard;
    const Tick slot_start = line_start + guard;

    // Both arbitration messages are 8 B optical control transfers.
    energy().countOpticalTransfer(2 * controlMessageBytes);

    queueArrival(static_cast<std::uint32_t>(ci), slot_start, msg,
                 Leg::Slot, width);
}

void
TwoPhaseArbitratedNetwork::runLeg(Leg leg, Message msg,
                                  std::uint32_t arg)
{
    if (leg != Leg::Slot) {
        Network::runLeg(leg, std::move(msg), arg);
        return;
    }
    // The slot starts now; it serializes at the width the channel had
    // when the slot was granted.
    const Tick ser = OpticalChannel(arg, 0).serialization(msg.bytes);
    transmitSlot(std::move(msg), now(), ser);
}

BusyResource *
TwoPhaseArbitratedNetwork::treeFor(SiteId site, std::uint32_t col,
                                   Tick slot_start, Tick slot_end)
{
    (void)slot_end;
    const std::size_t instances = alt_ ? 2 : 1;
    const std::size_t base = (static_cast<std::size_t>(site)
                              * config().cols + col) * instances;
    for (std::size_t i = 0; i < instances; ++i) {
        if (trees_[base + i].busyUntil() <= slot_start)
            return &trees_[base + i];
    }
    return nullptr;
}

void
TwoPhaseArbitratedNetwork::transmitSlot(Message msg, Tick slot_start,
                                        Tick ser)
{
    const std::uint32_t col = geometry().coordOf(msg.dst).col;
    BusyResource *tree = treeFor(msg.src, col, slot_start,
                                 slot_start + ser);
    if (tree == nullptr) {
        // The distributed arbiters granted this site two overlapping
        // slots toward the same column; this slot is wasted and the
        // packet re-arbitrates from scratch (section 4.3's switch
        // tree contention).
        ++wastedSlots_;
        arbitrate(std::move(msg), slot_start);
        return;
    }
    tree->reserve(slot_start, ser);
    chargeOpticalHop(msg);
    msg.serialization = ser;
    const Tick arrival = slot_start + ser
        + geometry().propagationDelay(msg.src, msg.dst);
    deliverAt(std::move(msg), arrival + cycle());
}

ComponentCounts
TwoPhaseArbitratedNetwork::componentCounts() const
{
    // Table 6 data-network rows. Switch total = per-column 1:8
    // switch trees (7 switches each; doubled in ALT), the feed-point
    // switches on each shared channel's waveguide segments (two
    // parallel segments in the base design, one in ALT), and the
    // destination input-select switches: ~16K base, ~15K ALT.
    ComponentCounts c;
    const std::uint64_t sites = config().siteCount();
    const std::uint64_t rows = config().rows;
    const std::uint64_t row_sites = config().cols;
    const std::uint64_t n_channels = rows * sites; // 512

    c.transmitters = sites * config().txPerSite * (alt_ ? 2 : 1);
    c.receivers = sites * config().rxPerSite;
    // Each shared channel's lambdas fill channelLambdas / WDM-degree
    // physical waveguides, each realized as two parallel feed
    // segments, on both its row run and its column drop: 8 waveguides
    // per channel at Table 4 (16 lambdas / 8 per guide x 2 x 2)
    // -> 4096 (Table 6).
    const std::uint64_t wg_per_channel =
        (channelLambdas_ + config().wavelengthsPerWaveguide - 1)
        / config().wavelengthsPerWaveguide * 2 * 2;
    c.waveguides = n_channels * wg_per_channel;
    const std::uint64_t trees =
        sites * config().cols * (row_sites - 1) * (alt_ ? 2 : 1);
    const std::uint64_t feeds = n_channels * row_sites
        * (alt_ ? 1 : 2);
    const std::uint64_t input_select = n_channels * row_sites;
    c.opticalSwitches = trees + feeds + input_select;
    return c;
}

ComponentCounts
TwoPhaseArbitratedNetwork::arbitrationCounts() const
{
    // Table 6 arbitration row: one request and one notification
    // transmitter per site (128 Tx); every site snoops its full row
    // and column (1024 Rx); two request waveguides per row plus one
    // notification waveguide per column (24 waveguides).
    ComponentCounts c;
    const std::uint64_t sites = config().siteCount();
    c.transmitters = 2 * sites;
    c.receivers = sites * (config().cols + config().rows);
    c.waveguides = 2 * config().rows + config().cols;
    return c;
}

std::vector<LaserPowerSpec>
TwoPhaseArbitratedNetwork::opticalPower() const
{
    // Data: worst case cols-1 switch hops in the base design (7 at
    // Table 4, 7 dB -> 5x) or cols-2 in ALT (the doubled feed drops
    // one stage; 6 dB -> 4x) with twice the wavelengths. The
    // arbitration network's waveguides are snooped by every site of
    // a row/column, requiring max(rows, cols)x input power, but
    // carry only 2 x sites wavelengths (Table 5: ~1 W at 8x8).
    const std::uint64_t data_lambdas = static_cast<std::uint64_t>(
        config().siteCount()) * config().txPerSite * (alt_ ? 2 : 1);
    const std::uint32_t base_hops =
        config().cols > 1 ? config().cols - 1 : 1;
    const std::uint32_t alt_hops =
        config().cols > 2 ? config().cols - 2 : 1;
    const double switch_hops =
        static_cast<double>(alt_ ? alt_hops : base_hops);
    const double snoop_fanout = static_cast<double>(
        std::max(config().rows, config().cols));
    std::vector<LaserPowerSpec> specs;
    specs.push_back(LaserPowerSpec{
        alt_ ? "Two-Phase Data (ALT)" : "Two-Phase Data",
        data_lambdas,
        lossFactorFromExtraLoss(Decibel(switch_hops * 1.0))});
    specs.push_back(LaserPowerSpec{
        "Two-Phase Arbitration", 2 * config().siteCount(),
        snoop_fanout});
    return specs;
}

} // namespace macrosim
