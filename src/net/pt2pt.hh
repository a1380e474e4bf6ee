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

    /** Direct access for tests: the channel for an ordered pair.
     *  Panics on a pair whose source another LP's replica owns. */
    const OpticalChannel &channel(SiteId src, SiteId dst) const;

    /** Channels this replica holds: every ordered pair, or once bound
     *  to an LP, only the rows of the sources that LP owns. */
    std::size_t channelCount() const { return channels_.size(); }

    /** Every ordered pair owns a channel the fault model can degrade;
     *  a bound replica applies health only to its own sources' rows
     *  (applyLinkHealth() returns false for the others). */
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

    /** Keep only the rows of the sources this LP owns: a replica
     *  transmits only on its own sources' channels. */
    void dropForeignState() override;

  private:
    /** rowOf_ entry of a source whose row another replica holds. */
    static constexpr std::uint32_t foreignRow = ~std::uint32_t{0};

    /** Dense index of the (src, dst) channel, also its FIFO's.
     *  @pre src's row is held here. */
    std::uint32_t
    channelIndex(SiteId src, SiteId dst) const
    {
        return rowOf_[src] + dst;
    }

    std::uint32_t lambdas_;
    /** Per-direction E-O + O-E conversion overhead (one cycle). */
    Tick interfaceOverhead_;
    /** Per source: offset of its row of sites channels in channels_,
     *  or foreignRow once bound to an LP that does not own it. */
    std::vector<std::uint32_t> rowOf_;
    std::vector<OpticalChannel> channels_; // rows of sites channels
};

} // namespace macrosim

#endif // MACROSIM_NET_PT2PT_HH
