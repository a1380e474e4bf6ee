/**
 * @file
 * Limited point-to-point network with electronic routing (paper
 * section 4.6, figure 5).
 *
 * Each site has a direct 8-wavelength / 20 GB/s optical channel to
 * each of its row peers and column peers. Traffic to any other site
 * is forwarded through the single site that is a peer of both — the
 * intersection (src row, dst column) — where one of two per-site 7x7
 * electronic routers converts the packet O-E, switches it, and
 * re-transmits it E-O on a column channel. Every packet thus takes at
 * most one intermediate electronic hop. Router latency is one cycle;
 * router energy is 60 pJ/byte (section 6.3).
 */

#ifndef MACROSIM_NET_LIMITED_PT2PT_HH
#define MACROSIM_NET_LIMITED_PT2PT_HH

#include <vector>

#include "net/channel.hh"
#include "net/network.hh"

namespace macrosim
{

class LimitedPointToPointNetwork : public Network
{
  public:
    LimitedPointToPointNetwork(Simulator &sim,
                               const MacrochipConfig &config);

    std::string_view
    name() const override
    {
        return "Limited Point-to-Point";
    }

    std::string_view statName() const override { return "lpt2pt"; }

    ComponentCounts componentCounts() const override;
    std::vector<LaserPowerSpec> opticalPower() const override;

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) override;

    /** Wavelengths per peer channel (8 -> 20 GB/s). */
    std::uint32_t wavelengthsPerChannel() const { return lambdas_; }

    /** Direct access for tests: the channel for a peer pair.
     *  Panics on a pair that is not peers. */
    const OpticalChannel &
    channel(SiteId src, SiteId dst) const
    {
        return channels_[peerIndex(src, dst)];
    }

    /** The forwarding site for a non-peer pair. */
    SiteId forwarderFor(SiteId src, SiteId dst) const;

    /** The alternate forwarder: (dst row, src column), reached
     *  column-first through the site's column-to-row router. */
    SiteId alternateForwarderFor(SiteId src, SiteId dst) const;

    /**
     * Mark a site's electronic routers as failed (yield / repair
     * scenarios — the macrochip's motivation is precisely tolerating
     * imperfect silicon). Direct traffic to and from the site still
     * flows; forwarded traffic reroutes through the alternate
     * forwarder. Routing between a pair whose BOTH forwarders have
     * failed is impossible and inject() reports it via fatal().
     */
    void failSiteRouters(SiteId site);

    /** Whether a site's routers are failed. */
    bool
    routersFailed(SiteId site) const
    {
        return failedRouters_[site];
    }

    /** Packets that took the alternate (column-first) route. */
    std::uint64_t reroutedPackets() const { return rerouted_; }

    /** Whether two distinct sites share a row or column. */
    bool
    arePeers(SiteId a, SiteId b) const
    {
        return geometry().sameRow(a, b) || geometry().sameCol(a, b);
    }

    /** Packets that needed an intermediate electronic hop. */
    std::uint64_t forwardedPackets() const { return forwarded_; }

    /** The peer channels (row/column neighbours) are faultable. */
    std::vector<std::pair<SiteId, SiteId>> faultableLinks() const override;

    bool applyLinkHealth(SiteId a, SiteId b,
                         const LinkHealth &health) override;

    /** Site kill / repair toggles the site's electronic routers. */
    bool applySiteHealth(SiteId site, bool dead) override;

    /**
     * Direct channels are written only by their source site's route();
     * a forwarded packet's second leg uses the forwarder's channel,
     * so that leg is shipped to the forwarder's LP as a cross-LP
     * event rather than run at the source. (Forwarder *selection*
     * reads only static health flags — PDES runs are fault-free, so
     * every replica's copy agrees.)
     */
    PdesPartition
    pdesPartition() const override
    {
        return PdesPartition::BySourceSite;
    }

    Tick pdesLookahead(std::uint32_t min_bytes) const override;

  protected:
    void route(Message msg) override;

  private:
    /** Index of the (src, dst) peer channel in channels_, also its
     *  arrival FIFO's; panics for a non-peer pair. */
    std::uint32_t peerIndex(SiteId src, SiteId dst) const;

    OpticalChannel &
    peerChannel(SiteId src, SiteId dst)
    {
        return channels_[peerIndex(src, dst)];
    }

    void runLeg(Leg leg, Message msg, std::uint32_t arg) override;

    /** Whether @p via can forward: live routers and live legs. */
    bool forwarderUsable(SiteId src, SiteId via, SiteId dst);

    /** Second (optical) leg of a forwarded packet. */
    void forwardLeg(Message msg, SiteId via);

    /** Cross-LP forward-hop payload: the packet plus its forwarder. */
    struct ForwardHop
    {
        Message msg;
        SiteId via;
    };

    /** PdesEvent apply thunk for forward hops; target is the
     *  forwarder's replica (as Network*). */
    static void applyForward(void *target, const void *payload);

    std::uint32_t lambdas_;
    Tick interfaceOverhead_;
    Tick routerLatency_;
    std::uint64_t forwarded_ = 0;
    std::uint64_t rerouted_ = 0;
    std::vector<bool> failedRouters_;
    /** Dense src * sites + dst index into channels_; noChannel for a
     *  pair that is not peers. */
    std::vector<std::uint32_t> channelOf_;
    /** The peer channels, in (src, dst) order. */
    std::vector<OpticalChannel> channels_;
};

} // namespace macrosim

#endif // MACROSIM_NET_LIMITED_PT2PT_HH
