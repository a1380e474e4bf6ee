/**
 * @file
 * Live fault injection: schedule replay + link-margin re-evaluation.
 *
 * A FaultInjector arms a FaultSchedule against one simulation: each
 * event fires at its appointed tick, updates the target's accumulated
 * degradation, and re-evaluates the target's margin through the
 * section 2 link budget — deratedPath() + margin() on the canonical
 * un-switched link, the same arithmetic the static Table 5 analysis
 * uses. Negative margin (or a hard kill) marks the channel down;
 * margin still positive but under derateThreshold masks wavelengths,
 * reducing the channel's aggregate bandwidth to deratedFraction.
 * Both transitions surface as trace instant events and "fault.*"
 * stats.
 *
 * State is kept only for the targets events have hit: one entry per
 * channel or site, created on its first event, so construction does
 * no per-link work however large the topology.
 */

#ifndef MACROSIM_FAULT_INJECTOR_HH
#define MACROSIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "fault/fault.hh"
#include "net/network.hh"
#include "photonics/link_budget.hh"
#include "sim/flat_map.hh"
#include "sim/simulator.hh"

namespace macrosim
{

class TraceSink;

class FaultInjector
{
  public:
    /** Margin below this (but still >= 0) derates a channel. */
    static constexpr Decibel derateThreshold{2.0};
    /** Bandwidth fraction of a derated (reduced-margin) channel. */
    static constexpr double deratedFraction = 0.5;

    /**
     * @param trace Optional sink for "fault" instant events;
     *        @p trace_pid is the Perfetto process row to use.
     */
    FaultInjector(Simulator &sim, Network &net, FaultSchedule schedule,
                  TraceSink *trace = nullptr,
                  std::uint32_t trace_pid = 0);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Schedule every fault event; call once, before running. */
    void arm();

    /** Replay one event immediately (tests / manual timelines). */
    void apply(const FaultEvent &ev);

    /** Margin of a channel target right now, in dB. */
    double marginDbOf(const FaultTarget &target) const;

    std::uint64_t injectedFaults() const { return injected_; }
    std::uint64_t repairs() const { return repairs_; }
    /** Channels currently down (killed or negative margin). */
    std::uint64_t linksDown() const { return linksDown_; }
    /** Channels currently bandwidth-derated (margin in (0, thr)). */
    std::uint64_t linksDerated() const { return derated_; }
    /** Sites whose routing resources are currently dead. */
    std::uint64_t sitesDown() const { return sitesDown_; }
    /** Lowest channel margin seen across the run, in dB. */
    double minMarginDb() const { return minMarginDb_; }

  private:
    /** Accumulated degradation of one channel target (all dB). */
    struct ChannelState
    {
        double droopDb = 0.0;
        double dropDb = 0.0;
        double wgDb = 0.0;
        double rxDb = 0.0;
        bool killed = false;
    };

    /** The section 2 budget under @p st: laser droop lowers the
     *  launch power, drop-filter and waveguide loss derate the path,
     *  the receiver penalty raises the sensitivity. */
    double marginDb(const ChannelState &st) const;

    void applyChannel(const FaultEvent &ev);
    void applySite(const FaultEvent &ev);
    void registerStats();

    Simulator &sim_;
    Network &net_;
    FaultSchedule schedule_;
    /** The armed timeline, pinned so the injection events capture
     *  just [this, index] instead of a FaultEvent by value. */
    std::vector<FaultEvent> armedEvents_;
    /** The healthy path every channel is engineered to (17 dB). */
    const OpticalPath basePath_ = canonicalUnswitchedLink();
    TraceSink *trace_;
    std::uint32_t tracePid_;
    bool armed_ = false;

    /** Keyed by FaultTarget::key(). */
    FlatMap<std::uint64_t, ChannelState> channels_;
    /** Whether each site target is dead, keyed by FaultTarget::key(). */
    FlatMap<std::uint64_t, bool> sites_;

    std::uint64_t injected_ = 0;
    std::uint64_t repairs_ = 0;
    std::uint64_t linksDown_ = 0;
    std::uint64_t derated_ = 0;
    std::uint64_t sitesDown_ = 0;
    double minMarginDb_;
};

} // namespace macrosim

#endif // MACROSIM_FAULT_INJECTOR_HH
