/**
 * @file
 * HERMES-style hierarchical broadcast network (Mohamed et al.).
 *
 * The macrochip is tiled into clusters of sites. Each cluster owns a
 * wide WDM broadcast ring that snakes past its members: any member
 * modulates onto the shared ring and every member hears it, so
 * intra-cluster delivery is one serialized broadcast with no
 * arbitration hardware. Clusters are bridged by dedicated
 * point-to-point gateway links (one per ordered cluster pair);
 * cross-cluster packets take up to three legs — source ring to the
 * gateway, gateway-to-gateway bridge, destination ring to the
 * receiver — with an O-E-O hop at each gateway.
 *
 * The scaling argument this topology exists to test: broadcast loss
 * (1:N power split plus off-resonance ring passes) grows with the
 * *cluster* size, not the site count, so the per-wavelength laser
 * budget is scale-invariant where the flat token-ring crossbar's ring
 * loss grows linearly with sites. The price is shared intra-cluster
 * bandwidth and gateway serialization.
 */

#ifndef MACROSIM_NET_HERMES_HH
#define MACROSIM_NET_HERMES_HH

#include <cstdint>
#include <vector>

#include "net/channel.hh"
#include "net/network.hh"

namespace macrosim
{

/** Tuning knobs for the hierarchical decomposition. */
struct HermesParams
{
    /** Cluster tile height in sites (clamped to the grid). */
    std::uint32_t clusterRows = 4;
    /** Cluster tile width in sites (clamped to the grid). */
    std::uint32_t clusterCols = 4;
    /** Broadcast-ring width in wavelengths; 0 derives
     *  2 x wavelengthsPerWaveguide x (clusterRows x clusterCols). */
    std::uint32_t ringLambdas = 0;
    /** Gateway bridge width in wavelengths; 0 derives
     *  2 x wavelengthsPerWaveguide. */
    std::uint32_t bridgeLambdas = 0;
};

class HermesNetwork : public Network
{
  public:
    HermesNetwork(Simulator &sim, const MacrochipConfig &config,
                  const HermesParams &params = HermesParams{});

    std::string_view name() const override { return "Hermes"; }
    std::string_view statName() const override { return "hermes"; }

    ComponentCounts componentCounts() const override;
    std::vector<LaserPowerSpec> opticalPower() const override;

    /**
     * The lossier of the two physical link classes: the cluster-span
     * broadcast ring (derated by the 1:N split and ring passes) and
     * the full-chip gateway bridge (un-switched). Overrides the base
     * so the feasibility gate sees the hierarchical loss structure
     * instead of assuming the broadcast loss rides a chip-spanning
     * route.
     */
    OpticalPath worstCaseLink() const override;

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) override;

    /* Decomposition accessors (exercised by the property tests). */

    std::uint32_t clusterCount() const
    {
        return static_cast<std::uint32_t>(members_.size());
    }

    std::uint32_t clusterOf(SiteId s) const { return clusterOf_[s]; }

    const std::vector<SiteId> &
    clusterMembers(std::uint32_t cluster) const
    {
        return members_[cluster];
    }

    std::uint32_t
    clusterSize(std::uint32_t cluster) const
    {
        return static_cast<std::uint32_t>(members_[cluster].size());
    }

    /** The cluster member carrying the inter-cluster bridges. */
    SiteId gatewayOf(std::uint32_t cluster) const
    {
        return gateways_[cluster];
    }

    /** Serpentine ring index of @p s within its own cluster. */
    std::uint32_t ringPosition(SiteId s) const { return ringPos_[s]; }

    /** Effective (clamped) cluster tile dimensions. */
    std::uint32_t clusterRows() const { return clusterRows_; }
    std::uint32_t clusterCols() const { return clusterCols_; }

    std::uint32_t ringLambdas() const { return ringLambdas_; }
    std::uint32_t bridgeLambdas() const { return bridgeLambdas_; }

    /** Ring propagation per hop (adjacent serpentine sites). */
    Tick ringHopDelay() const { return hop_; }

    /** Per-packet optical interface overhead (one clock cycle). */
    Tick interfaceOverhead() const { return interfaceOverhead_; }

    /** Electronic gateway forwarding latency (one clock cycle). */
    Tick routerLatency() const { return routerLatency_; }

    /** Forward ring hops from @p src to @p dst (same cluster). */
    std::uint32_t ringHops(SiteId src, SiteId dst) const;

    /** Cross-cluster packets carried so far. */
    std::uint64_t bridgedPackets() const { return bridged_; }

    /**
     * Fault granularity: each cluster's broadcast ring keyed by its
     * gateway (g, g) — masking models dropped ring wavelengths — and
     * each ordered gateway pair (gA, gB) as an independent bridge.
     */
    std::vector<std::pair<SiteId, SiteId>> faultableLinks() const override;

    bool applyLinkHealth(SiteId a, SiteId b,
                         const LinkHealth &health) override;

    /** A dead gateway severs its cluster's bridges (not its ring). */
    bool applySiteHealth(SiteId site, bool dead) override;

    /** Broadcast rings and bridge arbitration are shared by every
     *  site in a cluster — the topology cannot split across LPs. */
    PdesPartition
    pdesPartition() const override
    {
        return PdesPartition::Colocated;
    }

  protected:
    void route(Message msg) override;

  private:
    /** Second leg: O-E-O at the source gateway, onto the bridge. */
    void bridgeLeg(Message msg);
    /** Third leg: O-E-O at the destination gateway, onto its ring. */
    void destinationRingLeg(Message msg);

    void runLeg(Leg leg, Message msg, std::uint32_t arg) override;

    /** Index of the (from, to) bridge, also its arrival FIFO's. */
    std::uint32_t
    bridgeIndex(std::uint32_t from, std::uint32_t to) const
    {
        return from * clusterCount() + to;
    }

    OpticalChannel &bridgeAt(std::uint32_t from, std::uint32_t to)
    {
        return bridges_[bridgeIndex(from, to)];
    }

    /** Arrival FIFO of @p cluster's ring for packets landing @p hops
     *  ring hops after their serialization ends. */
    std::uint32_t
    ringFifo(std::uint32_t cluster, std::uint32_t hops) const
    {
        return clusterCount() * clusterCount()
            + cluster * ringHopClasses_ + hops - 1;
    }

    /** Worst-case broadcast loss in dB: off-resonance ring passes
     *  plus the 1:N receiver power split, over the largest cluster. */
    double ringLossDb() const;

    std::uint32_t maxClusterSize() const;

    std::uint32_t clusterRows_;
    std::uint32_t clusterCols_;
    std::uint32_t ringLambdas_;
    std::uint32_t bridgeLambdas_;
    Tick hop_;
    Tick interfaceOverhead_;
    Tick routerLatency_;

    std::vector<std::uint32_t> clusterOf_;   ///< site -> cluster
    std::vector<std::uint32_t> ringPos_;     ///< site -> ring index
    std::vector<std::vector<SiteId>> members_; ///< ring order
    std::vector<SiteId> gateways_;           ///< cluster -> gateway
    std::vector<OpticalChannel> rings_;      ///< one per cluster
    std::vector<OpticalChannel> bridges_;    ///< dense pair matrix
    std::vector<bool> gatewayDead_;          ///< cluster -> severed
    /** Ring FIFOs per cluster: one per hop count 1..largest size. */
    std::uint32_t ringHopClasses_ = 0;

    std::uint64_t bridged_ = 0;
};

} // namespace macrosim

#endif // MACROSIM_NET_HERMES_HH
