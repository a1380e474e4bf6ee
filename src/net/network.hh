/**
 * @file
 * Abstract inter-site network interface and shared bookkeeping.
 *
 * A Network accepts packets via inject() and, some simulated time
 * later, invokes the destination site's delivery handler. Subclasses
 * implement route() with their topology's arbitration / switching /
 * routing mechanics; the base class owns delivery dispatch, latency
 * and bandwidth statistics, energy accounting, the single-cycle
 * intra-site loopback of section 6.2, and the analytic descriptors
 * (component counts, laser power) behind Tables 5 and 6.
 */

#ifndef MACROSIM_NET_NETWORK_HH
#define MACROSIM_NET_NETWORK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arch/config.hh"
#include "net/arrival_fifo.hh"
#include "net/channel.hh"
#include "net/energy.hh"
#include "net/message.hh"
#include "photonics/laser_power.hh"
#include "photonics/link_budget.hh"
#include "sim/pdes_scheduler.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace macrosim
{

/** One row of Table 6: optical component totals for a network. */
struct ComponentCounts
{
    std::uint64_t transmitters = 0;
    std::uint64_t receivers = 0;
    /** Waveguide count including area-equivalent routing (see 6.4). */
    std::uint64_t waveguides = 0;
    std::uint64_t opticalSwitches = 0;
    std::uint64_t electronicRouters = 0;
};

/** Aggregate delivery statistics, resettable for warmup windows. */
struct NetworkStats
{
    Counter injected;
    Counter delivered;
    Counter bytesDelivered;
    /** End-to-end latency per delivered packet, nanoseconds. */
    Accumulator latencyNs;
    /** Packets abandoned after the retry policy was exhausted. */
    Counter dropped;
    /** Re-routing attempts scheduled by the retry policy. */
    Counter retries;

    void
    reset()
    {
        injected.reset();
        delivered.reset();
        bytesDelivered.reset();
        latencyNs.reset();
        dropped.reset();
        retries.reset();
    }
};

/**
 * Health of one fault-injectable link, as the fault model sees it
 * after margin re-evaluation: down means no traffic at all, while a
 * bandwidthFraction below 1.0 derates the link's bit rate (wavelength
 * masking) without taking it out of service.
 */
struct LinkHealth
{
    bool down = false;
    double bandwidthFraction = 1.0;
};

/**
 * Bounded-retry policy for packets that hit a dead resource. A packet
 * whose routing attempt fails is re-queued after
 * backoffBase << (attempts - 1) ticks, up to maxAttempts total
 * attempts; after that it is dropped (counted, surfaced to the drop
 * handler, non-fatal). With no policy set a failed routing attempt is
 * a fatal error, preserving the strict pre-fault-model behaviour.
 */
struct RetryPolicy
{
    Tick backoffBase = 0;
    std::uint32_t maxAttempts = 0;

    bool enabled() const { return maxAttempts > 0; }
};

/**
 * How a topology's mutable state splits across parallel-in-model
 * logical processes (sim/pdes_scheduler.hh).
 */
enum class PdesPartition
{
    /**
     * The topology has globally shared mutable state — a token's
     * position, gateway arbitration queues, a switch configuration,
     * a broadcast bus — so replicas cannot advance concurrently.
     * Drivers must collapse such a network onto one logical process.
     */
    Colocated,
    /**
     * Every piece of mutable state is owned by exactly one site (or
     * one ordered site pair whose writes all originate at one site),
     * so site groups may run in parallel: one replica per LP, each
     * handling injections for its own sites and deliveries routed in
     * from the others.
     */
    BySourceSite,
};

class Network
{
  public:
    using Handler = std::function<void(const Message &)>;

    Network(Simulator &sim, const MacrochipConfig &config);
    virtual ~Network() = default;

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    virtual std::string_view name() const = 0;

    /** Short lowercase slug for dotted stat names ("net.<slug>.*"). */
    virtual std::string_view statName() const = 0;

    /**
     * Accept a packet for delivery. Stamps injection time, serves
     * intra-site traffic over the one-cycle loopback, and hands
     * inter-site traffic to the topology.
     */
    void inject(Message msg);

    /** Register the receive callback for one site. */
    void
    setDeliveryHandler(SiteId site, Handler h)
    {
        handlers_.at(site) = std::move(h);
    }

    /** Register a fallback callback for sites without their own. */
    void setDefaultHandler(Handler h) { defaultHandler_ = std::move(h); }

    /**
     * Register an observer invoked for *every* delivery, before the
     * site handler. Observers are for instrumentation (tracing,
     * logging) and must not mutate simulation state.
     */
    void setDeliveryObserver(Handler h) { observer_ = std::move(h); }

    NetworkStats &stats() { return stats_; }
    const NetworkStats &stats() const { return stats_; }

    EnergyModel &energy() { return energy_; }
    const EnergyModel &energy() const { return energy_; }

    const MacrochipConfig &config() const { return config_; }
    const MacrochipGeometry &geometry() const { return geometry_; }
    Simulator &sim() { return sim_; }

    /**
     * Ordered (src, dst) pairs whose channel (or channel bundle) the
     * fault model may degrade independently. Topologies without
     * per-pair channels return their natural fault granularity (token
     * ring: per-destination bundles as (d, d); two-phase: shared
     * channels as (row, dst)). Default: nothing faultable.
     */
    virtual std::vector<std::pair<SiteId, SiteId>> faultableLinks() const
    {
        return {};
    }

    /**
     * Push re-evaluated health for the link keyed (a, b) — a key
     * previously returned by faultableLinks(). @return false when
     * this topology has no such link.
     */
    virtual bool
    applyLinkHealth(SiteId a, SiteId b, const LinkHealth &health)
    {
        (void)a; (void)b; (void)health;
        return false;
    }

    /**
     * Mark a site's routing resources (electronic routers, switch
     * rows) dead or repaired. @return false when this topology has no
     * per-site routing resource to fail.
     */
    virtual bool
    applySiteHealth(SiteId site, bool dead)
    {
        (void)site; (void)dead;
        return false;
    }

    /**
     * Enable bounded retry with exponential backoff for packets whose
     * routing attempt hits a dead resource. Without a policy such
     * packets are a fatal error.
     */
    void setRetryPolicy(const RetryPolicy &policy) { retry_ = policy; }
    const RetryPolicy &retryPolicy() const { return retry_; }

    /**
     * Register a callback invoked when a packet is abandoned after
     * retry exhaustion (or immediately, with no retry policy set).
     * Workloads use this to count losses instead of dying.
     */
    void setDropHandler(Handler h) { dropHandler_ = std::move(h); }

    std::uint64_t droppedPackets() const { return stats_.dropped.value(); }
    std::uint64_t retriedPackets() const { return stats_.retries.value(); }

    /** Table 6 row for this network. */
    virtual ComponentCounts componentCounts() const = 0;

    /** Table 5 rows (data network, plus any control subnetworks). */
    virtual std::vector<LaserPowerSpec> opticalPower() const = 0;

    /** Total laser watts across all subnetworks. */
    double laserWatts() const;

    /**
     * The worst-case link a wavelength traverses on this network at
     * this grid size: the generalized un-switched link of the R x C
     * geometry derated by the worst subnetwork power-loss factor
     * (switch hops, snoop splits, ring passes). This is the path the
     * scaling feasibility gate assesses.
     */
    virtual OpticalPath worstCaseLink() const;

    /**
     * Physical feasibility of worstCaseLink() under the
     * maxLaunchPower nonlinearity ceiling. Infeasible means no
     * amount of laser power closes the link at this scale point.
     */
    LinkFeasibility feasibility() const;

    /**
     * Total static electrical+optical power: lasers, ring tuning
     * (0.1 mW per Tx and Rx ring), and switch bias (0.5 mW each).
     */
    double staticWatts() const;

    /** Refresh the energy model's static power from the descriptors,
     *  and warn (once per call site) if any subnetwork's laser budget
     *  has eaten through the engineered 4 dB link margin. Must be
     *  called once by the concrete class's constructor (the
     *  descriptors are virtual and unavailable during base
     *  construction). */
    void primeEnergyModel();

    /**
     * Register this network's statistics under "<prefix>." in a
     * StatRegistry for uniform reporting (gem5-style stat dumps). The
     * registry pulls values at dump time, so register once and dump
     * whenever. Topologies override to add their own stats (channel
     * occupancy, arbitration counters) and call the base first.
     */
    virtual void registerStats(StatRegistry &registry,
                               const std::string &prefix);

    /**
     * Dotted prefix of this network's stats in the simulation-wide
     * registry ("net.<name>", uniquified); empty until the concrete
     * constructor has run registerTelemetry().
     */
    const std::string &statPrefix() const { return statPrefix_; }

    /** How this topology's state may split across logical processes.
     *  Colocated unless the concrete class can prove otherwise. */
    virtual PdesPartition pdesPartition() const
    {
        return PdesPartition::Colocated;
    }

    /**
     * Lower bound on the latency of any message of at least
     * @p min_bytes between sites owned by different LPs: no inject()
     * at local time t may cause a delivery (or any other cross-LP
     * event) before t + lookahead. The base bound is the optical
     * flight time over one site pitch — distinct sites are at least
     * that far apart; topologies add their unavoidable per-message
     * overheads on top, such as serializing @p min_bytes.
     */
    virtual Tick pdesLookahead(std::uint32_t min_bytes) const;

    /**
     * Bind this replica to logical process @p lp of @p sched. The
     * replica must have been constructed on that LP's Simulator; it
     * registers itself as the LP's cross-LP event target and switches
     * inject()/deliverAt() onto the deterministic keyed path (ids
     * become source-scoped sequence numbers, deliveries are ordered
     * by id rather than insertion). A Colocated topology may only
     * bind to a single-LP scheduler. From then on inject() panics on
     * a message smaller than @p min_bytes, the size the scheduler's
     * lookahead was derived from. Last, the topology drops the state
     * that other LPs' replicas own (dropForeignState()).
     */
    void bindPdes(PdesScheduler &sched, std::uint32_t lp,
                  std::uint32_t min_bytes);

    /** Whether bindPdes() has run. */
    bool pdesBound() const { return pdes_ != nullptr; }

    /** The logical process this replica is bound to. */
    std::uint32_t pdesLp() const { return pdesLp_; }

  protected:
    /** Deliver inter-site traffic; implemented by each topology. */
    virtual void route(Message msg) = 0;

    /**
     * Called once at the end of bindPdes(): free the state that only
     * other LPs' replicas touch, such as the channels of sources this
     * replica does not own (ownsSite() is live here). What a topology
     * keeps must serve every event a bound replica can run. Default:
     * keep everything.
     */
    virtual void dropForeignState() {}

    /**
     * Self-register in the simulation-wide registry under
     * "net.<name()>" (uniquified per simulation, so a second network
     * of the same kind lands at "net.<name>#2"). Called by the
     * concrete constructor, after members referenced by stat getters
     * exist.
     */
    void registerTelemetry();

    /**
     * Schedule final delivery of @p msg at @p when, stamping
     * timestamps and stats and invoking the site handler. A bound
     * replica files it keyed by the message id: as one event holding
     * the packet when this LP owns the destination, as a PdesEvent
     * posted to the owner otherwise.
     */
    void deliverAt(const Message &msg, Tick when);

    /**
     * Declare @p count arrival FIFOs for queueArrival(), numbered from
     * 0. Call before registerTelemetry(), which then adds
     * "<prefix>.queued" and "<prefix>.peak_queued".
     */
    void useArrivalFifos(std::size_t count);

    /**
     * Run @p leg for @p msg at @p when: a delivery, or a named next leg
     * that runLeg() carries out with @p arg.
     *
     * Outside PDES the arrival queues in FIFO @p fifo, and only the
     * FIFO's head is an event. It takes the seq a schedule() would
     * take now, so it runs exactly where that event would have. The
     * caller keys FIFOs so that the arrivals queued on one never
     * decrease (net/arrival_fifo.hh). A PDES-bound replica schedules
     * every arrival at once: a delivery on deliverAt()'s keyed path, a
     * named leg as a plain event.
     */
    void queueArrival(std::uint32_t fifo, Tick when, const Message &msg,
                      Leg leg, std::uint32_t arg = 0);

    /**
     * Transmit @p msg on @p ch no earlier than @p earliest, charge the
     * optical hop, and queue the arrival (see queueArrival()) @p after
     * ticks past the channel's landing time. On one channel landings
     * strictly increase (busy-until serialization, fixed flight), so a
     * FIFO per (channel, @p after) keeps its arrivals in order.
     */
    void
    transmitOn(OpticalChannel &ch, std::uint32_t fifo, Tick earliest,
               Tick after, const Message &msg, Leg leg,
               std::uint32_t arg = 0)
    {
        const Tick landed = ch.transmit(earliest, msg.bytes);
        chargeOpticalHop(msg);
        queueArrival(fifo, landed + after, msg, leg, arg);
    }

    /**
     * Carry out named leg @p leg of @p msg with its queueArrival()
     * argument @p arg. Topologies that queue named legs override this;
     * the base panics.
     */
    virtual void runLeg(Leg leg, Message msg, std::uint32_t arg);

    /**
     * A routing attempt for @p msg hit a dead resource (@p reason).
     * With a retry policy and attempts remaining, re-queues the packet
     * into route() after exponential backoff; once exhausted, counts
     * the drop and notifies the drop handler. Without either a policy
     * or a drop handler this is a fatal error — the strict behaviour
     * models relied on before the fault subsystem existed.
     */
    void dropPacket(Message msg, const char *reason);

    /** Charge one optical hop's transceiver energy for @p msg. */
    void
    chargeOpticalHop(const Message &msg)
    {
        energy_.countOpticalTransfer(msg.bytes);
    }

    Tick now() const { return sim_.now(); }
    Tick cycle() const { return config_.clockPeriod; }

    /** The bound scheduler, or nullptr outside PDES mode. */
    PdesScheduler *pdes() { return pdes_; }

    /** Whether @p site belongs to this replica's LP (always true
     *  outside PDES mode). */
    bool
    ownsSite(SiteId site) const
    {
        return !pdes_ || pdes_->lpOfSite(site) == pdesLp_;
    }

    /**
     * Hand a fully-built cross-LP event to the LP owning @p dst_site:
     * scheduled locally when that is this replica, posted through the
     * scheduler otherwise. Fills ev.target with the destination
     * replica; both paths order by ev.key, so results do not depend
     * on the partition. @pre pdesBound().
     */
    void pdesRoute(SiteId dst_site, PdesEvent &ev, const char *tag);

  private:
    /** Delivery epilogue: stamps @p msg delivered in place, then
     *  stats, observer, site handler. Runs at delivery time on the
     *  destination's LP. */
    void finishDelivery(Message &msg);

    /** PdesEvent apply thunk for final deliveries; payload is the
     *  Message, target the destination replica (as Network*). */
    static void applyDeliver(void *target, const void *payload);

    /** File the new head of @p fifo under its reserved @p seq; the
     *  event holds its packet. */
    void fileHead(std::uint32_t fifo, Tick when, std::uint64_t seq,
                  const Message &msg, Leg leg, std::uint32_t arg);

    /** The head of @p fifo lands: file the next one, then deliver
     *  @p msg or run its named leg. */
    void runHead(std::uint32_t fifo, Message &msg, Leg leg,
                 std::uint32_t arg);

    Simulator &sim_;
    MacrochipConfig config_;
    MacrochipGeometry geometry_;
    NetworkStats stats_;
    EnergyModel energy_;
    std::vector<Handler> handlers_;
    Handler defaultHandler_;
    Handler observer_;
    Handler dropHandler_;
    RetryPolicy retry_;
    MessageId nextId_ = 1;
    std::string statPrefix_;
    /** Declared by useArrivalFifos(); the pool is built when the
     *  first arrival queues. */
    std::uint32_t arrivalFifos_ = 0;
    std::unique_ptr<ArrivalFifos> arrivals_;
    /** Arrivals queued outside PDES, heads included, and their peak:
     *  "<prefix>.queued" and "<prefix>.peak_queued". */
    std::uint64_t queued_ = 0;
    std::uint64_t peakQueued_ = 0;

    PdesScheduler *pdes_ = nullptr;
    std::uint32_t pdesLp_ = 0;
    /** Smallest message a bound replica accepts (bindPdes()). */
    std::uint32_t pdesMinBytes_ = 0;
    /** Per-source injection sequence numbers backing the PDES message
     *  ids: ((src + 1) << 40) | seq is unique, grows in each site's
     *  own injection order, and so is identical for every LP count —
     *  exactly what same-tick delivery ordering needs. */
    std::vector<std::uint64_t> pdesSeq_;
};

} // namespace macrosim

#endif // MACROSIM_NET_NETWORK_HH
