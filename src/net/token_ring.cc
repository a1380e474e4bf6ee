#include "net/token_ring.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace macrosim
{

namespace
{

/**
 * Call @p visit(i) for each set bit i of @p words in [lo, hi), lowest
 * first, while it returns true. @return false if a visit stopped the
 * walk.
 */
template <typename Visit>
bool
forEachSetBit(const std::uint64_t *words, std::uint32_t lo,
              std::uint32_t hi, Visit &&visit)
{
    if (lo >= hi)
        return true;
    const std::uint32_t last = (hi - 1) >> 6;
    for (std::uint32_t w = lo >> 6; w <= last; ++w) {
        std::uint64_t bits = words[w];
        if (w == lo >> 6)
            bits &= ~std::uint64_t(0) << (lo & 63);
        if (w == last && (hi & 63) != 0)
            bits &= (std::uint64_t(1) << (hi & 63)) - 1;
        for (; bits != 0; bits &= bits - 1) {
            if (!visit(w * 64 + static_cast<std::uint32_t>(
                                    __builtin_ctzll(bits))))
                return false;
        }
    }
    return true;
}

} // namespace

TokenRingCrossbar::TokenRingCrossbar(Simulator &sim,
                                     const MacrochipConfig &config)
    : Network(sim, config),
      hop_(geometry().ringHopDelay()),
      bundleLambdas_(config.rxPerSite),
      ringPos_(config.siteCount())
{
    const std::size_t sites = config.siteCount();
    arbTokenPos_.assign(sites, 0);
    arbTokenFree_.assign(sites, 0);
    arbBusyTicks_.assign(sites, 0);
    arbGrantEvent_.assign(sites, invalidEventId);
    arbMasked_.assign(sites, 0);
    downMask_.assign((sites + 63) / 64, 0);
    maskWords_ = static_cast<std::uint32_t>((sites + 63) / 64);
    qHead_.assign(sites * sites, noWaiter);
    qTail_.assign(sites * sites, noWaiter);
    occupied_.assign(sites * maskWords_, 0);

    // Serpentine (boustrophedon) ring order so consecutive ring
    // positions are physically adjacent sites.
    for (SiteId s = 0; s < config.siteCount(); ++s) {
        const SiteCoord c = geometry().coordOf(s);
        const std::uint32_t col_in_row =
            (c.row % 2 == 0) ? c.col : (geometry().cols() - 1 - c.col);
        ringPos_[s] = c.row * geometry().cols() + col_in_row;
    }
    primeEnergyModel();
    registerTelemetry();
}

void
TokenRingCrossbar::registerStats(StatRegistry &registry,
                                 const std::string &prefix)
{
    Network::registerStats(registry, prefix);
    registry.add(prefix + ".grants", [this] {
        return static_cast<double>(grants_);
    });
    // How many bundles are dead, and how many have senders queued,
    // right now.
    registry.add(prefix + ".down_channels", [this] {
        std::uint64_t n = 0;
        for (const std::uint64_t w : downMask_)
            n += static_cast<std::uint64_t>(__builtin_popcountll(w));
        return static_cast<double>(n);
    });
    registry.add(prefix + ".waiting_channels", [this] {
        std::uint64_t n = 0;
        for (SiteId d = 0; d < config().siteCount(); ++d) {
            const std::uint64_t *words =
                &occupied_[std::size_t{d} * maskWords_];
            n += std::any_of(words, words + maskWords_,
                             [](std::uint64_t w) { return w != 0; });
        }
        return static_cast<double>(n);
    });
    // One bundle (== channel) per destination site: report each
    // bundle's occupancy (token hold time over wall time) so hot
    // destinations stand out in snapshots.
    for (SiteId d = 0; d < config().siteCount(); ++d) {
        registry.add(
            prefix + ".ch" + std::to_string(d) + ".occupancy",
            [this, d] {
                const Tick t = now();
                return t == 0
                    ? 0.0
                    : static_cast<double>(arbBusyTicks_[d])
                        / static_cast<double>(t);
            });
    }
}

std::uint32_t
TokenRingCrossbar::forwardHops(std::uint32_t from, std::uint32_t to)
    const
{
    const std::uint32_t n = ringSize();
    return ((to + n - from - 1) % n) + 1;
}

Tick
TokenRingCrossbar::tokenArrival(SiteId dst, std::uint32_t pos,
                                Tick earliest) const
{
    const Tick loop = tokenRoundTrip();
    Tick arrival = arbTokenFree_[dst]
        + static_cast<Tick>(forwardHops(arbTokenPos_[dst], pos)) * hop_;
    if (arrival < earliest) {
        const Tick behind = earliest - arrival;
        const Tick loops = (behind + loop - 1) / loop;
        arrival += loops * loop;
    }
    return arrival;
}

std::vector<std::pair<SiteId, SiteId>>
TokenRingCrossbar::faultableLinks() const
{
    std::vector<std::pair<SiteId, SiteId>> links;
    links.reserve(config().siteCount());
    for (SiteId d = 0; d < config().siteCount(); ++d)
        links.emplace_back(d, d);
    return links;
}

bool
TokenRingCrossbar::applyLinkHealth(SiteId a, SiteId b,
                                   const LinkHealth &health)
{
    if (a != b || a >= config().siteCount())
        return false;
    setBit(downMask_, a, health.down);
    if (health.bandwidthFraction >= 1.0) {
        arbMasked_[a] = 0;
    } else {
        const auto masked = static_cast<std::uint32_t>(
            static_cast<double>(bundleLambdas_)
            * health.bandwidthFraction + 0.5);
        arbMasked_[a] = masked < 1 ? 1 : masked;
    }
    return true;
}

std::uint32_t
TokenRingCrossbar::allocWaiter()
{
    if (freeHead_ != noWaiter) {
        const std::uint32_t slot = freeHead_;
        freeHead_ = wNext_[slot];
        return slot;
    }
    wMsg_.emplace_back();
    wReady_.push_back(0);
    wNext_.push_back(noWaiter);
    return static_cast<std::uint32_t>(wNext_.size() - 1);
}

void
TokenRingCrossbar::freeWaiter(std::uint32_t slot)
{
    wNext_[slot] = freeHead_;
    freeHead_ = slot;
}

void
TokenRingCrossbar::route(Message msg)
{
    if (testBit(downMask_, msg.dst)) {
        dropPacket(std::move(msg), "destination bundle down");
        return;
    }
    const SiteId dst = msg.dst;
    const std::uint32_t pos = ringPos_[msg.src];
    const std::uint32_t slot = allocWaiter();
    wReady_[slot] = now();
    wNext_[slot] = noWaiter;
    wMsg_[slot] = std::move(msg);
    const std::size_t q = queueOf(dst, pos);
    if (qHead_[q] == noWaiter) {
        qHead_[q] = slot;
        setBit(occupied_, occupiedBit(dst, pos), true);
    } else {
        wNext_[qTail_[q]] = slot;
    }
    qTail_[q] = slot;
    armGrant(dst);
}

void
TokenRingCrossbar::armGrant(SiteId dst)
{
    // The next grant goes to the queue head the token reaches first.
    // A queue's waiters are ready in order, so its head is reached no
    // later than the rest and, on a tie, arrived first. Walk the
    // non-empty positions in forward ring order from the one after
    // the token's (its own comes last, a full loop on): every first-
    // pass arrival (<= tokenFree + loop) beats every later-loop one,
    // and first-pass arrivals grow along the walk, so the first head
    // ready for its first pass wins. Failing that the token idled
    // past every head: take the minimum. Arrivals at distinct
    // positions differ mod the loop, so they never tie.
    const std::uint32_t n = ringSize();
    const std::uint32_t from = arbTokenPos_[dst];
    const Tick first_loop_end = arbTokenFree_[dst] + tokenRoundTrip();
    Tick best = maxTick;
    std::uint32_t best_pos = noWaiter;
    const auto visit = [&](std::uint32_t pos) {
        const Tick arrival =
            tokenArrival(dst, pos, wReady_[qHead_[queueOf(dst, pos)]]);
        if (arrival < best) {
            best = arrival;
            best_pos = pos;
        }
        return arrival > first_loop_end;
    };
    const std::uint64_t *occupied =
        &occupied_[std::size_t{dst} * maskWords_];
    if (forEachSetBit(occupied, from + 1, n, visit))
        forEachSetBit(occupied, 0, from + 1, visit);
    if (best_pos == noWaiter)
        return;
    // Re-arm even when the scheduled grant still wins: the new
    // event's place among same-tick events is part of the model's
    // event order.
    if (arbGrantEvent_[dst] != invalidEventId)
        sim().events().cancel(arbGrantEvent_[dst]);
    arbGrantEvent_[dst] = sim().events().schedule(
        best, [this, dst, best_pos] { grant(dst, best_pos); },
        "net.tring.grant");
}

void
TokenRingCrossbar::grant(SiteId dst, std::uint32_t pos)
{
    arbGrantEvent_[dst] = invalidEventId;
    const std::size_t q = queueOf(dst, pos);
    const std::uint32_t slot = qHead_[q];
    if (slot == noWaiter) {
        panic("TokenRingCrossbar::grant: no waiter at ring position ",
              pos, " for site ", dst);
    }
    qHead_[q] = wNext_[slot];
    if (qHead_[q] == noWaiter)
        setBit(occupied_, occupiedBit(dst, pos), false);
    Message msg = std::move(wMsg_[slot]);
    freeWaiter(slot);

    if (testBit(downMask_, dst)) {
        // The bundle failed while this waiter held a grant slot.
        dropPacket(std::move(msg), "destination bundle down");
        armGrant(dst);
        return;
    }

    // The sender holds the token while it streams the packet onto
    // the destination's bundle, then re-injects it at its own ring
    // position. Masked (degraded) wavelengths stretch the hold.
    const std::uint32_t width = arbMasked_[dst]
        ? arbMasked_[dst] : bundleLambdas_;
    const Tick hold = OpticalChannel(width, 0)
        .serialization(msg.bytes);
    const Tick hold_end = now() + hold;
    arbTokenPos_[dst] = pos;
    arbTokenFree_[dst] = hold_end;
    arbBusyTicks_[dst] += hold;
    ++grants_;
    msg.serialization = hold;

    // Data flows forward along the serpentine bundle to the
    // destination site.
    const Tick data_prop =
        static_cast<Tick>(forwardHops(pos, ringPos_[dst])) * hop_;
    chargeOpticalHop(msg);
    deliverAt(std::move(msg), hold_end + data_prop);

    armGrant(dst);
}

std::uint64_t
TokenRingCrossbar::physicalWaveguides() const
{
    // 128-lambda bundles at WDM factor 2, with the loop's return
    // path, for each of the 64 destinations: 8192 physical
    // waveguides (section 6.4).
    const std::uint64_t per_bundle =
        (config().rxPerSite / wdmFactor) * 2;
    return static_cast<std::uint64_t>(config().siteCount())
        * per_bundle;
}

ComponentCounts
TokenRingCrossbar::componentCounts() const
{
    // Table 6: 512K Tx (every site modulates every destination's
    // bundle), 8192 Rx, 32K area-equivalent waveguides (each of the
    // 8192 physical waveguides is routed along every row of the
    // macrochip, quadrupling its area contribution), no switches.
    ComponentCounts c;
    const std::uint64_t sites = config().siteCount();
    c.transmitters = sites * sites * config().rxPerSite;
    c.receivers = sites * config().rxPerSite;
    c.waveguides = physicalWaveguides() * 4;
    return c;
}

std::vector<LaserPowerSpec>
TokenRingCrossbar::opticalPower() const
{
    // Every wavelength passes the off-resonance modulator rings of
    // all 64 sites (wdmFactor rings per site on its waveguide):
    // 128 x 0.1 dB = 12.8 dB of ring loss -> 19x laser power for the
    // 8192 circulating wavelengths (Table 5: 155 W).
    const std::uint64_t lambdas = static_cast<std::uint64_t>(
        config().siteCount()) * config().rxPerSite;
    const double ring_loss_db = 0.1
        * static_cast<double>(config().siteCount() * wdmFactor);
    return {LaserPowerSpec{"Token-Ring", lambdas,
                           lossFactorFromExtraLoss(
                               Decibel(ring_loss_db))}};
}

} // namespace macrosim
