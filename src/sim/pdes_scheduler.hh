/**
 * @file
 * Conservative parallel-in-model discrete-event scheduler.
 *
 * One simulation is partitioned into N logical processes (sim/lp.hh),
 * each owning a full Simulator for its site group. LPs synchronize
 * with a barrier-free, null-message-free variant of the classic
 * Chandy-Misra-Bryant horizon protocol:
 *
 *   - every LP publishes an earliest output time (EOT): a promise
 *     that no message it ever sends will carry an earlier timestamp;
 *   - an LP's earliest input time (EIT) is the minimum EOT over the
 *     other LPs, and it may safely execute local events strictly
 *     below its EIT;
 *   - after draining its inboxes and executing, it republishes
 *       EOT = min(next local event tick, EIT) + lookahead,
 *     where lookahead is a physical lower bound on cross-LP message
 *     latency — for the macrochip, the minimum inter-site optical
 *     propagation delay (plus per-topology interface overheads),
 *     thousands of ticks at ps resolution.
 *
 * EOTs are monotone, so EITs only grow; lookahead > 0 gives liveness
 * (two mutually-blocked LPs ratchet each other forward by one
 * lookahead per round). Safety: a message not yet visible when an LP
 * drains was sent after the LP read the sender's EOT, and therefore
 * carries a timestamp >= that EOT >= the EIT the LP executes below.
 *
 * A step executes at most one lookahead past its first pending tick,
 * so every LP republishes its EOT while it still has work and the
 * LPs advance side by side instead of in turns.
 *
 * Cross-LP messages travel through SPSC channels (spsc.hh) as
 * PdesEvents — (timestamp, key, apply-function, opaque payload) —
 * and are folded into the receiver's queue with
 * EventQueue::scheduleKeyed, so same-tick ordering comes from the
 * message's causal key, not from real-time arrival order: results
 * are bit-identical for every LP and worker-thread count. A post is
 * staged into its channel's batch and published with the rest of the
 * sender's step, before the sender's new EOT: a message staged in a
 * round carries a timestamp >= the EOT the previous round published,
 * and no receiver can run that tick before it reads this round's
 * EOT, which is stored after this round's handoff.
 *
 * Termination uses an in-flight message counter plus per-LP versioned
 * idle words: the check reads every LP's word, verifies all idle and
 * nothing in flight, then re-reads the words. A message is counted in
 * flight before it becomes visible (at the sender's publish), and an
 * LP republishes its word *before* releasing its drained messages'
 * in-flight counts, so a check that observes in-flight == 0 also
 * observes the version bump of whichever step drained the last
 * message.
 */

#ifndef MACROSIM_SIM_PDES_SCHEDULER_HH
#define MACROSIM_SIM_PDES_SCHEDULER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/lp.hh"
#include "sim/spsc.hh"
#include "sim/telemetry/registry.hh"
#include "sim/ticks.hh"

namespace macrosim
{

class PdesTracer;

/**
 * One LP's row of the end-of-run load-balance report: a snapshot of
 * the LP's LpMetrics plus its outgoing-channel totals. The
 * tick-domain fields (sites, executed, drained, posts) are
 * thread-count invariant; everything wall-clock or round-counted is
 * a real-time diagnostic (see DESIGN.md §12).
 */
struct PdesLpLoad
{
    std::uint32_t lp = 0;
    /** Sites mapped to this LP (0 when no partition installed). */
    std::uint64_t sites = 0;
    std::uint64_t executed = 0;
    std::uint64_t rounds = 0;
    std::uint64_t progressRounds = 0;
    std::uint64_t blockedRounds = 0;
    std::uint64_t drained = 0;
    std::uint64_t maxRoundExecuted = 0;
    std::uint64_t eotEventAdvances = 0;
    std::uint64_t eotRatchetAdvances = 0;
    std::uint64_t eotAdvanceTicks = 0;
    std::uint64_t grantedTicks = 0;
    std::uint64_t consumedTicks = 0;
    /** Outgoing cross-LP posts / largest batch one of its outgoing
     *  channels delivered in one drain. */
    std::uint64_t posts = 0;
    std::uint64_t peakDepth = 0;
    double drainWallNs = 0.0;
    double execWallNs = 0.0;
    double blockedWallNs = 0.0;

    /** drain + exec wall time (the LP's useful work), ns. */
    double busyWallNs() const { return drainWallNs + execWallNs; }

    /** Mean EOT advance in lookaheads: near 1 when the LPs run side
     *  by side, near 2 when they take turns; 0 without advances. */
    double eotAdvance(Tick lookahead) const;
};

/**
 * End-of-run load-balance summary across all LPs; built by
 * PdesScheduler::loadReport() after run() returns (single-writer
 * metrics are only safe to read once the workers joined).
 */
struct PdesLoadReport
{
    std::vector<PdesLpLoad> lps;
    Tick lookahead = 0;
    /** Whether wall-clock splits were collected (metricsTiming()). */
    bool timed = false;
    std::uint64_t totalExecuted = 0;
    std::uint64_t minExecuted = 0;
    std::uint64_t maxExecuted = 0;
    double meanExecuted = 0.0;
    /** maxExecuted / meanExecuted; 1.0 = perfectly balanced. */
    double eventImbalance = 0.0;
    /** LP with the most busy wall time (ties: most events, then
     *  lowest id). With timing off, falls back to most events. */
    std::uint32_t criticalLp = 0;
    std::uint64_t crossPosts = 0;
    double drainWallNs = 0.0;
    double execWallNs = 0.0;
    double blockedWallNs = 0.0;
    /** blocked / (busy + blocked) over all LPs; 0 when not timed. */
    double blockedFraction = 0.0;
    /** PdesLpLoad::eotAdvance over every LP's advances together. */
    double eotAdvance = 0.0;

    /** Aligned human-readable table (one header + one row per LP). */
    void print(std::ostream &os) const;
};

/** Payload bytes a cross-LP event can carry inline (a Message plus a
 *  little routing context must fit; checked by static_asserts at the
 *  senders). Sized so the drain-side callback capture — apply, target
 *  and payload — still fits InlineCallback's buffer. */
constexpr std::size_t pdesMaxPayload = 88;

/**
 * A timestamped cross-LP event: at tick `when`, call
 * `apply(target, payload)` on the destination LP. `key` orders
 * same-tick events deterministically (EventQueue::scheduleKeyed);
 * derive it from the payload's causal identity (e.g. the message id),
 * never from arrival order.
 */
struct PdesEvent
{
    Tick when = 0;
    std::uint64_t key = 0;
    void (*apply)(void *target, const void *payload) = nullptr;
    void *target = nullptr;
    unsigned char payload[pdesMaxPayload] = {};
};

/**
 * Schedule @p ev into @p q as a keyed event. Shared by the drain side
 * and by senders whose destination happens to live on the local LP —
 * both paths must order identically for LP-count invariance.
 */
void schedulePdesEvent(EventQueue &q, const PdesEvent &ev,
                       const char *tag);

class PdesScheduler
{
  public:
    /**
     * @param lp_count Number of logical processes (>= 1).
     * @param threads Worker threads; clamped to [1, lp_count].
     *        0 means one worker per LP.
     * @param seed Root seed; each LP's Simulator RNG derives from it.
     */
    explicit PdesScheduler(std::uint32_t lp_count,
                           std::size_t threads = 0,
                           std::uint64_t seed = 1);

    PdesScheduler(const PdesScheduler &) = delete;
    PdesScheduler &operator=(const PdesScheduler &) = delete;

    std::uint32_t lpCount() const
    {
        return static_cast<std::uint32_t>(lps_.size());
    }

    std::size_t threadCount() const { return threads_; }

    LogicalProcess &lp(std::uint32_t i) { return *lps_[i]; }
    Simulator &simOf(std::uint32_t i) { return lps_[i]->sim(); }

    /**
     * Set the cross-LP lookahead. Must be > 0: liveness of the
     * horizon protocol depends on it. Senders must never post an
     * event earlier than (their now) + lookahead; post() enforces it.
     */
    void setLookahead(Tick l);
    Tick lookahead() const { return lookahead_; }

    /**
     * Install the site -> LP map (model-level bookkeeping; the
     * scheduler itself never inspects site ids beyond handing the map
     * back to the model objects bound to it).
     */
    void setSitePartition(std::vector<std::uint32_t> lp_of_site);

    const std::vector<std::uint32_t> &
    sitePartition() const
    {
        return siteLp_;
    }

    std::uint32_t
    lpOfSite(std::uint32_t site) const
    {
        return siteLp_[site];
    }

    /**
     * Contiguous balanced split of @p sites site ids over @p lps
     * groups (first sites % lps groups get one extra). Site ids are
     * row-major, so groups are contiguous row bands and every
     * cross-group site pair is at least one site pitch apart — the
     * lookahead floor the topologies derive from geometry.
     */
    static std::vector<std::uint32_t>
    blockPartition(std::uint32_t sites, std::uint32_t lps);

    /**
     * Register the model object PdesEvents on @p lp should be applied
     * to (opaque to the scheduler; senders store the pointer into
     * PdesEvent::target). One target per LP — for this codebase, the
     * LP's Network replica.
     */
    void setTarget(std::uint32_t lp, void *target);
    void *target(std::uint32_t lp) const { return targets_[lp]; }

    /**
     * Post @p ev from @p src_lp to @p dst_lp. Must be called from the
     * worker thread currently stepping @p src_lp (the channels are
     * SPSC). The event is staged, touching no shared state, and
     * reaches @p dst_lp when the sender's step publishes. @pre
     * ev.when >= simOf(src_lp).now() + lookahead().
     */
    void post(std::uint32_t src_lp, std::uint32_t dst_lp,
              const PdesEvent &ev);

    /**
     * Run every LP until all queues drain (or pass @p limit) and no
     * message is in flight. Events scheduled at exactly @p limit
     * still run. Not reentrant; single-LP schedulers run inline on
     * the calling thread, multi-worker runs fan out over a
     * ThreadPool.
     *
     * @return Events executed across all LPs during this call.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Cross-LP events posted since construction (the channels'
     *  producer-side counts: read after run() returns). */
    std::uint64_t crossPosts() const;

    /**
     * Enable wall-clock round timing in every LP's step (two
     * steady_clock reads per round). Off by default so the horizon
     * protocol's hot loop stays clock-free; the timed benches turn it
     * on to fill the report's busy/blocked breakdown.
     */
    void setMetricsTiming(bool on) { metricsTiming_ = on; }
    bool metricsTiming() const { return metricsTiming_; }

    /**
     * The scheduler's own stat registry: per-LP horizon metrics under
     * "pdes.lp<N>.*", per-ordered-pair channel stats under
     * "pdes.ch<src>_<dst>.*", and scheduler totals under "pdes.*".
     * Populated at construction; dump only after run() returns (the
     * getters read single-writer worker state).
     */
    StatRegistry &telemetry() { return telemetry_; }

    /**
     * Snapshot the per-LP metrics into a load-balance report.
     * Call after run() returns — reads unsynchronized worker state.
     */
    PdesLoadReport loadReport() const;

    /**
     * Attach the Perfetto tracer notified on every cross-LP post
     * (PdesTracer installs per-LP tick observers itself). One tracer
     * at a time; pass nullptr to detach.
     */
    void setTracer(PdesTracer *tracer);
    PdesTracer *tracer() const { return tracer_; }

  private:
    friend class LogicalProcess;
    friend class PdesTracer;

    /** Register the pdes.* subtree into telemetry_ (ctor helper). */
    void registerStats();

    Tick eotOf(std::uint32_t j) const { return lps_[j]->eot(); }

    SpscChannel<PdesEvent> &
    channel(std::uint32_t src, std::uint32_t dst)
    {
        return channels_[static_cast<std::size_t>(src) * lps_.size()
                         + dst];
    }

    /** End of @p src_lp's step: count its staged posts in flight,
     *  then publish every outgoing channel. */
    void publishPosts(std::uint32_t src_lp);

    void workerLoop(std::size_t worker, Tick limit);
    bool tryFinish();

    std::size_t threads_;
    /** Workers participating in the current run() (<= threads_). */
    std::size_t activeWorkers_ = 1;
    Tick lookahead_ = 0;
    bool metricsTiming_ = false;
    PdesTracer *tracer_ = nullptr;
    StatRegistry telemetry_;
    std::vector<std::unique_ptr<LogicalProcess>> lps_;
    /** Ordered-pair channels, src * lpCount + dst (diagonal unused;
     *  an idle channel holds no entries). */
    std::vector<SpscChannel<PdesEvent>> channels_;
    std::vector<void *> targets_;
    std::vector<std::uint32_t> siteLp_;

    /** Written at every publish and release; polled by the
     *  termination check. */
    alignas(64) std::atomic<std::uint64_t> inFlight_{0};
    /** Polled by every worker each pass: on its own line, so the
     *  in-flight traffic does not invalidate it. */
    alignas(64) std::atomic<bool> done_{false};
};

} // namespace macrosim

#endif // MACROSIM_SIM_PDES_SCHEDULER_HH
