/**
 * @file
 * One logical process (LP) of a partitioned simulation.
 *
 * A LogicalProcess owns a full Simulator — event queue, RNG, stat
 * registry — for its share of the model, and the conservative-PDES
 * bookkeeping the scheduler's horizon protocol runs on: a published
 * earliest-output-time (EOT) and a versioned idle word used for
 * termination detection. Exactly one worker thread steps an LP at a
 * time, so everything except the three published atomics is
 * single-threaded state.
 *
 * See sim/pdes_scheduler.hh for the protocol; the proof obligations
 * live there.
 */

#ifndef MACROSIM_SIM_LP_HH
#define MACROSIM_SIM_LP_HH

#include <atomic>
#include <cstdint>

#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace macrosim
{

class PdesScheduler;

/**
 * Horizon-protocol observability for one LP. Counters (rounds,
 * events, EOT advances) are always on — they are plain increments on
 * state the step already touches. Wall-clock splits are only
 * accumulated when PdesScheduler::metricsTiming() is enabled, because
 * each timed round costs two steady_clock reads.
 *
 * Determinism note: the tick-domain counters (drained, consumedTicks,
 * and the executed count kept by the LP itself) are bit-identical for
 * every worker-thread count; the round counters, EOT advance split,
 * grantedTicks and all wall-clock fields depend on real-time
 * interleaving and are diagnostics only. DESIGN.md §12 keeps the
 * glossary.
 */
struct LpMetrics
{
    /** Protocol rounds stepped (progress + blocked). */
    std::uint64_t rounds = 0;
    /** Rounds that drained or executed something. */
    std::uint64_t progressRounds = 0;
    /** Rounds that spun with nothing under the horizon. */
    std::uint64_t blockedRounds = 0;
    /** Cross-LP messages folded out of the inboxes. */
    std::uint64_t drained = 0;
    /** Most events executed in a single round. */
    std::uint64_t maxRoundExecuted = 0;
    /** EOT advances driven by a pending local event (next < EIT). */
    std::uint64_t eotEventAdvances = 0;
    /** EOT advances that merely ratcheted on the granted horizon. */
    std::uint64_t eotRatchetAdvances = 0;
    /** Total ticks the published EOT moved (finite advances only). */
    std::uint64_t eotAdvanceTicks = 0;
    /** Ticks of horizon granted by the other LPs (EIT growth). */
    std::uint64_t grantedTicks = 0;
    /** Ticks of simulated time actually consumed executing. */
    std::uint64_t consumedTicks = 0;
    /** Wall-clock spent in progress rounds up to the drain, ns. */
    double drainWallNs = 0.0;
    /** Wall-clock spent executing + publishing in progress rounds. */
    double execWallNs = 0.0;
    /** Wall-clock spent in rounds that made no progress, ns. */
    double blockedWallNs = 0.0;
};

class LogicalProcess
{
  public:
    LogicalProcess(PdesScheduler &sched, std::uint32_t id,
                   std::uint64_t seed);

    LogicalProcess(const LogicalProcess &) = delete;
    LogicalProcess &operator=(const LogicalProcess &) = delete;

    std::uint32_t id() const { return id_; }
    Simulator &sim() { return sim_; }
    const Simulator &sim() const { return sim_; }

    /**
     * One round of the horizon protocol: compute the earliest input
     * time from the other LPs' EOTs, drain every inbound channel into
     * the local queue, execute strictly below the horizon (capped at
     * @p limit, inclusive, and at one lookahead past the first
     * pending tick), then publish this round's cross-LP posts, the
     * new EOT and the idle state.
     *
     * Must only be called by the worker thread that owns this LP.
     *
     * @return Whether the step made progress (drained or executed
     *         anything).
     */
    bool step(Tick limit);

    /** Published earliest output time: no event this LP will ever
     *  send can be timestamped earlier. Monotone nondecreasing. */
    Tick eot() const { return eot_.load(std::memory_order_seq_cst); }

    /**
     * Published (version << 1) | idle word. The version advances
     * whenever a step does work or flips the idle bit, so a reader
     * that sees the same word twice knows no work happened in
     * between; see PdesScheduler::tryFinish().
     */
    std::uint64_t
    stateWord() const
    {
        return state_.load(std::memory_order_seq_cst);
    }

    /** Events executed by this LP (cumulative). */
    std::uint64_t executed() const { return executed_; }

    /** Horizon-protocol counters. Single-writer (the owning worker);
     *  read from other threads only after the run has joined. */
    const LpMetrics &metrics() const { return metrics_; }

  private:
    /** Drain every inbound channel into the local queue as keyed
     *  events. @return messages drained (in-flight count is released
     *  by step() only after the state word is republished — the
     *  termination check depends on that order). */
    std::uint64_t drainInboxes();

    void publishState(bool idle, bool worked);

    PdesScheduler &sched_;
    std::uint32_t id_;
    Simulator sim_;
    std::uint64_t executed_ = 0;
    std::uint64_t stepVersion_ = 0;
    bool lastIdle_ = false;
    LpMetrics metrics_;
    /** Largest finite EIT seen, for grantedTicks accounting. */
    Tick lastEit_ = 0;

    /** Published horizon data, each on its own cache line: the other
     *  LPs' workers poll these every step. */
    alignas(64) std::atomic<Tick> eot_{0};
    alignas(64) std::atomic<std::uint64_t> state_{0};
};

} // namespace macrosim

#endif // MACROSIM_SIM_LP_HH
