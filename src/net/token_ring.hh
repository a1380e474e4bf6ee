/**
 * @file
 * Token-ring-arbitrated optical crossbar (paper section 4.4; Corona
 * adapted to the macrochip).
 *
 * Every destination site owns a 128-wavelength / 320 GB/s waveguide
 * bundle that snakes past all 64 sites; any site may modulate onto
 * the bundle, so access is arbitrated by a per-destination optical
 * token circulating the same serpentine ring. A site diverts the
 * token, holds it while transmitting (one cycle moves a 64-byte
 * packet at 320 B/ns), and re-injects it. Scaled to macrochip
 * dimensions, a full token round trip is 80 cycles (16 ns), which is
 * the latency a sender pays between back-to-back packets to the same
 * destination — the effect that caps one-to-one patterns below 1% of
 * peak (section 6.1).
 *
 * Corona's 64-way WDM would suffer 0.1 dB off-resonance modulator
 * loss x 4096 rings; the macrochip adaptation reduces WDM to 2 and
 * quadruples waveguides, limiting ring loss to 12.8 dB (19x laser
 * power, Table 5).
 */

#ifndef MACROSIM_NET_TOKEN_RING_HH
#define MACROSIM_NET_TOKEN_RING_HH

#include <cstdint>
#include <vector>

#include "net/channel.hh"
#include "net/network.hh"

namespace macrosim
{

class TokenRingCrossbar : public Network
{
  public:
    /** WDM factor after the macrochip adaptation of section 4.4. */
    static constexpr std::uint32_t wdmFactor = 2;

    TokenRingCrossbar(Simulator &sim, const MacrochipConfig &config);

    std::string_view name() const override { return "Token Ring"; }
    std::string_view statName() const override { return "tring"; }

    ComponentCounts componentCounts() const override;
    std::vector<LaserPowerSpec> opticalPower() const override;

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) override;

    /** Grants issued (token captures) across all destinations. */
    std::uint64_t grantsIssued() const { return grants_; }

    /** Physical waveguides before area-equivalent accounting. */
    std::uint64_t physicalWaveguides() const;

    /** Ring position (serpentine order) of a site. */
    std::uint32_t ringPosition(SiteId s) const { return ringPos_[s]; }

    /** Token travel time for one full loop (80 cycles at 5 GHz). */
    Tick tokenRoundTrip() const { return hop_ * ringSize(); }

    std::uint32_t ringSize() const { return config().siteCount(); }

    /**
     * The fault granularity is the per-destination waveguide bundle,
     * keyed (d, d): any sender modulates the same bundle, so a fault
     * degrades every path toward that destination at once.
     */
    std::vector<std::pair<SiteId, SiteId>> faultableLinks() const override;

    bool applyLinkHealth(SiteId a, SiteId b,
                         const LinkHealth &health) override;

    /** The token's position is one global resource every injection
     *  contends for — the topology cannot split across LPs. */
    PdesPartition
    pdesPartition() const override
    {
        return PdesPartition::Colocated;
    }

  protected:
    void route(Message msg) override;

  private:
    /** Forward ring distance, in hops, from index @p from to @p to;
     *  a full loop (ringSize) when from == to. */
    std::uint32_t forwardHops(std::uint32_t from, std::uint32_t to) const;

    /** First time destination @p dst's token passes ring index
     *  @p pos at or after @p earliest. */
    Tick tokenArrival(SiteId dst, std::uint32_t pos,
                      Tick earliest) const;

    /** (Re)schedule the next grant for destination @p dst. */
    void armGrant(SiteId dst);

    /** Fire the grant armGrant() chose: the head of ring position
     *  @p pos's queue to @p dst. */
    void grant(SiteId dst, std::uint32_t pos);

    /** Queue (head/tail array index) of senders at ring position
     *  @p pos waiting for @p dst's token. */
    std::size_t
    queueOf(SiteId dst, std::uint32_t pos) const
    {
        return std::size_t{dst} * ringSize() + pos;
    }

    /** Bit of ring position @p pos in @p dst's words of occupied_. */
    std::size_t
    occupiedBit(SiteId dst, std::uint32_t pos) const
    {
        return std::size_t{dst} * maskWords_ * 64 + pos;
    }

    /** Claim a waiter-pool slot from the free list, growing the pool
     *  by one slot when it is empty. */
    std::uint32_t allocWaiter();
    void freeWaiter(std::uint32_t slot);

    static constexpr std::uint32_t noWaiter = ~std::uint32_t(0);

    /** Bit helpers over packed flag words. */
    static bool
    testBit(const std::vector<std::uint64_t> &words, std::size_t i)
    {
        return (words[i >> 6] >> (i & 63)) & 1u;
    }
    static void
    setBit(std::vector<std::uint64_t> &words, std::size_t i, bool on)
    {
        if (on)
            words[i >> 6] |= std::uint64_t(1) << (i & 63);
        else
            words[i >> 6] &= ~(std::uint64_t(1) << (i & 63));
    }

    Tick hop_;              ///< Token/data propagation per ring hop.
    std::uint32_t bundleLambdas_;
    std::uint64_t grants_ = 0;
    std::vector<std::uint32_t> ringPos_;  ///< site -> ring index

    /** Per-destination arbiter state as parallel arrays (index =
     *  destination site), so the stat reductions read one dense
     *  field across many destinations. */
    std::vector<std::uint32_t> arbTokenPos_; ///< Ring idx, last holder.
    std::vector<Tick> arbTokenFree_;    ///< When the token departed.
    std::vector<Tick> arbBusyTicks_;    ///< Cumulative token hold.
    std::vector<EventId> arbGrantEvent_;
    /** Masked bundle width; 0 means the full engineered width. */
    std::vector<std::uint32_t> arbMasked_;

    /** Dead bundles packed into 64-bit words (bit = destination). */
    std::vector<std::uint64_t> downMask_;

    /**
     * Waiters queue in one FIFO per (destination, ring position):
     * intrusive singly-linked lists through the pool's wNext_ lane,
     * with head/tail pool indices at queueOf(dst, pos) and, per
     * destination, maskWords_ words whose set bits are the non-empty
     * positions. Waiters join a queue at now(), so ready ticks never
     * decrease along it: its head is the one the token can serve
     * first, and armGrant() reads the heads only.
     */
    std::uint32_t maskWords_ = 0;
    std::vector<std::uint32_t> qHead_;
    std::vector<std::uint32_t> qTail_;
    std::vector<std::uint64_t> occupied_;

    /** Waiter pool as parallel lanes; free slots form a list through
     *  wNext_ starting at freeHead_. */
    std::vector<Message> wMsg_;
    std::vector<Tick> wReady_;
    std::vector<std::uint32_t> wNext_;
    std::uint32_t freeHead_ = noWaiter;
};

} // namespace macrosim

#endif // MACROSIM_NET_TOKEN_RING_HH
