/**
 * @file
 * Statically-routed WDM point-to-point network (paper section 4.2).
 *
 * Every ordered site pair owns a dedicated optical channel: the
 * transmitter picks the waveguide leading to the destination's column
 * and the wavelength that the destination's drop filter extracts, so
 * there is no arbitration, no switching and no routing — the only
 * queueing is for the pair's own narrow channel.
 *
 * With Table 4's 128 transmitters per site spread over 64 sites, each
 * channel is 2 wavelengths = 5 GB/s and 2 bits wide; the whole
 * network peaks at 20 TB/s.
 */

#ifndef MACROSIM_NET_PT2PT_HH
#define MACROSIM_NET_PT2PT_HH

#include <vector>

#include "net/channel.hh"
#include "net/network.hh"

namespace macrosim
{

class PointToPointNetwork : public Network
{
  public:
    PointToPointNetwork(Simulator &sim, const MacrochipConfig &config);

    std::string_view name() const override { return "Point-to-Point"; }
    std::string_view statName() const override { return "pt2pt"; }

    ComponentCounts componentCounts() const override;
    std::vector<LaserPowerSpec> opticalPower() const override;

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) override;

    /** Wavelengths (data-path bits) per site-pair channel. */
    std::uint32_t wavelengthsPerChannel() const { return lambdas_; }

    /** Direct access for tests: the channel for an ordered pair. */
    const OpticalChannel &channel(SiteId src, SiteId dst) const;

    /** Every ordered pair owns a channel the fault model can degrade. */
    std::vector<std::pair<SiteId, SiteId>> faultableLinks() const override;

    bool applyLinkHealth(SiteId a, SiteId b,
                         const LinkHealth &health) override;

    /** An ordered pair's channel is written only by its source site's
     *  route(), so site groups parallelize with no shared state. */
    PdesPartition
    pdesPartition() const override
    {
        return PdesPartition::BySourceSite;
    }

    Tick pdesLookahead(std::uint32_t min_bytes) const override;

  protected:
    void route(Message msg) override;

  private:
    /** Dense index of the (src, dst) channel, also its FIFO's. */
    std::uint32_t
    channelIndex(SiteId src, SiteId dst) const
    {
        return src * config().siteCount() + dst;
    }

    std::uint32_t lambdas_;
    /** Per-direction E-O + O-E conversion overhead (one cycle). */
    Tick interfaceOverhead_;
    std::vector<OpticalChannel> channels_; // src * sites + dst
};

} // namespace macrosim

#endif // MACROSIM_NET_PT2PT_HH
