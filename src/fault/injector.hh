/**
 * @file
 * Live fault injection: schedule replay + link-margin re-evaluation.
 *
 * A FaultInjector arms a FaultSchedule against one simulation: each
 * event fires at its appointed tick, updates the target's accumulated
 * degradation, and re-evaluates the affected OpticalPath's margin —
 * the same arithmetic the static Table 5 analysis uses. Negative
 * margin (or a hard kill) marks the channel down; margin still
 * positive but inside the derate threshold masks wavelengths,
 * reducing the channel's aggregate bandwidth. Both transitions
 * surface as trace instant events and "fault.*" stats.
 *
 * Per-link degradation lives in structure-of-arrays lanes —
 * droop/drop/waveguide/receiver dB, kill flags, cached margins — and
 * margins come from a flat fold over the base path's precomputed
 * per-element loss terms. The fold replays the operation sequence of
 * the photonics object path (deratedPath() + margin(), which copies
 * the OpticalPath per call) exactly, so it is bit-identical to that
 * reference while a whole topology's links re-evaluate in one pass
 * with no allocation.
 */

#ifndef MACROSIM_FAULT_INJECTOR_HH
#define MACROSIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fault/fault.hh"
#include "net/network.hh"
#include "photonics/link_budget.hh"
#include "sim/flat_map.hh"
#include "sim/simulator.hh"

namespace macrosim
{

class TraceSink;

/** Optical parameters the injector evaluates margins against. */
struct FaultModelParams
{
    /** The healthy path every channel is engineered to (17 dB). */
    OpticalPath basePath = canonicalUnswitchedLink();
    PowerDbm launch = launchPower;
    PowerDbm sensitivity = receiverSensitivity;
    /** Margin below this (but still >= 0) derates the channel. */
    Decibel derateThreshold{2.0};
    /** Bandwidth fraction of a derated (reduced-margin) channel. */
    double deratedFraction = 0.5;
};

class FaultInjector
{
  public:
    /**
     * @param trace Optional sink for "fault" instant events;
     *        @p trace_pid is the Perfetto process row to use.
     */
    FaultInjector(Simulator &sim, Network &net, FaultSchedule schedule,
                  const FaultModelParams &params = {},
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

    /**
     * Re-evaluate every tracked link's margin in one flat pass over
     * the degradation lanes, refreshing the margin cache. @return the
     * minimum margin across all tracked links, in dB (the base margin
     * when none are tracked).
     */
    double sweepMargins();

    /** Number of links with degradation lanes (every faultable link
     *  of the network, plus any targets events added). */
    std::size_t trackedLinks() const { return laneKeys_.size(); }

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
    /** Margin under the given accumulated degradation (laser droop,
     *  drop-filter and waveguide loss, receiver penalty; all dB):
     *  the photonics budget's operation order over the precomputed
     *  element-loss terms, no allocation. */
    double foldMargin(double droop_db, double drop_db, double wg_db,
                      double rx_db) const;

    /** Margin of lane @p i. */
    double marginOfLane(std::uint32_t i) const;

    /** Margin -> LinkHealth under the model params. */
    LinkHealth healthAt(std::uint32_t i, double margin_db) const;

    /** Lane of @p key, creating zeroed lanes on first sight. */
    std::uint32_t laneFor(std::uint64_t key);

    void applyChannel(const FaultEvent &ev);
    void applySite(const FaultEvent &ev);
    void registerStats();

    Simulator &sim_;
    Network &net_;
    FaultSchedule schedule_;
    /** The armed timeline, pinned so the injection events capture
     *  just [this, index] instead of a FaultEvent by value. */
    std::vector<FaultEvent> armedEvents_;
    FaultModelParams params_;
    TraceSink *trace_;
    std::uint32_t tracePid_;
    bool armed_ = false;

    /** Per-link degradation lanes (index = lane id). Seeded with
     *  every faultableLinks() key at construction; events against
     *  other keys grow the lanes on demand. */
    std::vector<std::uint64_t> laneKeys_;
    std::vector<double> droopDb_;
    std::vector<double> dropDb_;
    std::vector<double> wgDb_;
    std::vector<double> rxDb_;
    std::vector<std::uint8_t> killed_;
    /** Cached margins, refreshed on every mutation and by
     *  sweepMargins(). */
    std::vector<double> marginDb_;
    FlatMap<std::uint64_t, std::uint32_t> laneIndex_;

    /** Per-element loss terms of params_.basePath, in path order:
     *  insertionLoss x count, exactly the terms totalLoss() folds. */
    std::vector<double> elemLossDb_;
    double baseExtraDb_ = 0.0;
    double launchDbm_ = 0.0;
    double sensitivityDbm_ = 0.0;

    std::unordered_map<std::uint64_t, bool> sites_;

    std::uint64_t injected_ = 0;
    std::uint64_t repairs_ = 0;
    std::uint64_t linksDown_ = 0;
    std::uint64_t derated_ = 0;
    std::uint64_t sitesDown_ = 0;
    double minMarginDb_;
};

} // namespace macrosim

#endif // MACROSIM_FAULT_INJECTOR_HH
