/**
 * @file
 * Two-phase arbitration-based switched optical network (paper
 * section 4.3, figure 4).
 *
 * Data topology: the 8 sites of each row share a 16-wavelength /
 * 40 GB/s optical channel to every destination site (512 shared
 * channels in all). A site reaches the shared channels of a column
 * through a per-column tree of broadband switches, and is therefore
 * limited to one in-flight transmission per destination column.
 *
 * Arbitration: requests are posted in 0.4 ns slots on a per-row
 * request waveguide (each site owns a pre-assigned wavelength, so
 * posting never contends) and snooped by the whole arbitration
 * domain; because the macrochip is mesochronous, every site runs the
 * same round-robin slot assignment and reaches the same grant
 * decision. The destination column's manager then posts a switch
 * notification on the column's notification waveguide one slot ahead
 * of the data slot so row switches, the tree and the destination's
 * input-select switch are set in time.
 *
 * The base design's distributed slot assignment is oblivious to
 * switch-tree state: when a site holds overlapping grants toward two
 * sites of the same column, one data slot is unusable and the
 * transfer must re-arbitrate — the "switch tree contention" that
 * limits the base network to ~7.5% of peak on uniform traffic
 * (section 6.1). The ALT variant doubles the switch trees (and the
 * laser power) to cut those collisions (section 4.3).
 */

#ifndef MACROSIM_NET_TWO_PHASE_HH
#define MACROSIM_NET_TWO_PHASE_HH

#include <vector>

#include "net/channel.hh"
#include "net/network.hh"

namespace macrosim
{

/**
 * Tunable protocol parameters of the two-phase network; the defaults
 * are the DESIGN.md modelling choices. Exposed so ablation benches
 * can quantify how sensitive the figure 6 saturation point is to the
 * constants the paper leaves open.
 */
struct TwoPhaseParams
{
    /** Arbitration request slot (section 4.3: "about 0.4 ns"). */
    Tick arbSlot = 400;
    /** Broadband switch settling time. */
    Tick switchSetup = 1 * tickNs;
    /** Channel dead time when the transmitter changes. */
    Tick senderGuard = 1 * tickNs;
    /** Switch-request notification size on the column manager's
     *  wavelength (8 B at 20 Gb/s = 3.2 ns per grant). */
    std::uint32_t notificationBytes = controlMessageBytes;
};

class TwoPhaseArbitratedNetwork : public Network
{
  public:
    /**
     * @param alt Build the "2-phase Arb ALT" variant: two switch
     *        trees per (site, column), a second notification
     *        wavelength per column manager, and twice the laser
     *        power.
     */
    TwoPhaseArbitratedNetwork(Simulator &sim,
                              const MacrochipConfig &config,
                              bool alt = false,
                              const TwoPhaseParams &params = {});

    std::string_view
    name() const override
    {
        return alt_ ? "2-Phase Arb. ALT" : "2-Phase Arb.";
    }

    bool isAlt() const { return alt_; }

    std::string_view
    statName() const override
    {
        return alt_ ? "2phase_alt" : "2phase";
    }

    ComponentCounts componentCounts() const override;
    std::vector<LaserPowerSpec> opticalPower() const override;

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) override;

    /** Component counts of the separate arbitration network. */
    ComponentCounts arbitrationCounts() const;

    /** Wavelengths per shared data channel (16 -> 40 GB/s). */
    std::uint32_t channelLambdas() const { return channelLambdas_; }

    /** Data slots that were granted but unusable (tree busy). */
    std::uint64_t wastedSlots() const { return wastedSlots_; }

    /**
     * Fault granularity: the 512 shared data channels, keyed
     * (arbitration-domain row, destination site) — the first element
     * is a row index, not a site id.
     */
    std::vector<std::pair<SiteId, SiteId>> faultableLinks() const override;

    bool applyLinkHealth(SiteId a, SiteId b,
                         const LinkHealth &health) override;

    /** Row gateways arbitrate shared column channels — phase-two
     *  queues are written by whole rows, not single sites. */
    PdesPartition
    pdesPartition() const override
    {
        return PdesPartition::Colocated;
    }

  protected:
    void route(Message msg) override;

  private:
    /** Index of the shared channel (row of src, destination). */
    std::size_t
    channelIndex(SiteId src, SiteId dst) const
    {
        return static_cast<std::size_t>(geometry().coordOf(src).row)
            * config().siteCount() + dst;
    }

    /** Post a request and reserve its data slot (pipelined arb). */
    void arbitrate(Message msg, Tick post_time);

    /** Attempt the granted transmission; re-arbitrate on collision. */
    void transmitSlot(Message msg, Tick slot_start, Tick ser);

    /** The slot leg: @p arg is the channel width at the grant. */
    void runLeg(Leg leg, Message msg, std::uint32_t arg) override;

    /** Switch trees for (site, column); alt has two per pair. */
    BusyResource *treeFor(SiteId site, std::uint32_t col,
                          Tick slot_start, Tick slot_end);

    bool alt_;
    std::uint32_t channelLambdas_;
    Tick arbSlot_;       ///< 0.4 ns request slot.
    Tick rowProp_;       ///< Request flight along a full row.
    Tick colProp_;       ///< Notification flight along a column.
    Tick notifSer_;      ///< 8 B switch request on one wavelength.
    Tick switchSetup_;   ///< Broadband switch settling time.
    Tick senderGuard_;   ///< Channel dead time on sender change.
    std::uint64_t wastedSlots_ = 0;

    /** Shared-channel state (rows x sites, index channelIndex()) as
     *  parallel arrays: the per-message slot commit and the per-dump
     *  occupancy scan each touch exactly one field across all 512
     *  channels, so structure-of-arrays keeps those passes on dense,
     *  vectorizable lanes instead of striding through records. The
     *  busy-until/busy-ticks pair follows BusyResource::reserve()
     *  semantics exactly. */
    std::vector<Tick> chBusyUntil_;
    std::vector<Tick> chBusyTicks_;
    std::vector<SiteId> chLastSender_;
    std::vector<std::uint8_t> chDown_;       ///< Channel unusable.
    /** Masked channel width; 0 means the full width. */
    std::vector<std::uint32_t> chMasked_;

    std::vector<BusyResource> trees_;        // site x col x instances
    /** Column managers' notification wavelengths: one per
     *  (arbitration domain row, destination column) in the base
     *  design, two in ALT. This is the grant-rate bottleneck that
     *  limits the base network to ~7.5% of peak. */
    std::vector<BusyResource> notifications_;
};

} // namespace macrosim

#endif // MACROSIM_NET_TWO_PHASE_HH
