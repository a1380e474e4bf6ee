/**
 * @file
 * PdesTracer: parallel Perfetto timelines for a PdesScheduler run —
 * one thread row per logical process under a "pdes" pid.
 *
 * The determinism bar from DESIGN.md §11 applies to traces too: the
 * same model partitioned the same way must serialize byte-identical
 * trace JSON for every worker-thread count. Real protocol internals
 * (step rounds, live EIT reads, wall-clock) are *not* thread-count
 * invariant, so the timeline is synthesized purely from the two
 * deterministic streams a PDES run produces:
 *
 *  - each LP's executed (tick, events-at-tick) stream, observed via
 *    EventQueue::setTickObserver and quantized into lookahead-sized
 *    "horizon" windows — one span per (LP, window) with the events
 *    executed and the event-driven EOT envelope (window's last
 *    executed tick + lookahead) as args;
 *  - cross-LP posts, whose (src, dst, send tick, delivery tick, key)
 *    are all simulated quantities — rendered as flowStart/flowFinish
 *    arrows keyed by the partition-invariant message id (sampled by
 *    a deterministic key mask so heavy runs do not flood the ring).
 *
 * Each LP records into its own TraceSink shard (single writer: the
 * worker that steps the LP), and finish() merges the shards in fixed
 * LP order, then derives per-LP "eot.lp<N>" counter tracks and a
 * global "eit.floor" track (minimum over the per-LP EOT envelopes —
 * the horizon every LP's EIT is ratcheting along) at merge time.
 *
 * Timing-dependent protocol metrics (blocked wall time, peak channel
 * depth, round counts) deliberately do not appear here; they live in
 * PdesScheduler::telemetry() and loadReport().
 */

#ifndef MACROSIM_SIM_TELEMETRY_PDES_TRACE_HH
#define MACROSIM_SIM_TELEMETRY_PDES_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/telemetry/trace.hh"
#include "sim/ticks.hh"

namespace macrosim
{

class PdesScheduler;
struct PdesEvent;

class PdesTracer
{
  public:
    /**
     * Attach to @p sched: installs a tick observer on every LP's
     * event queue and registers as the scheduler's post hook. The
     * scheduler's lookahead must already be set (it defines the
     * horizon-window width); attach after buildPdesModel() / after
     * setLookahead(). The rows live under pid 90, each LP's shard
     * holds 65 536 trace events, and one cross-LP post in 64 (by
     * message key) becomes a flow arrow.
     */
    explicit PdesTracer(PdesScheduler &sched);

    /** Detaches the hooks if finish() was never called. */
    ~PdesTracer();

    PdesTracer(const PdesTracer &) = delete;
    PdesTracer &operator=(const PdesTracer &) = delete;

    /**
     * Scheduler hook: one cross-LP post, called on the source LP's
     * worker thread from PdesScheduler::post(). Appends (sampled)
     * flow arrows to the *source* LP's shard — both ends, so the
     * arrow never depends on receiver timing.
     */
    void recordPost(std::uint32_t src_lp, std::uint32_t dst_lp,
                    Tick send_tick, const PdesEvent &ev);

    /**
     * Flush the per-LP observers, close open windows, merge every
     * shard into @p out in fixed LP order, emit the derived EOT/EIT
     * counter tracks, and detach from the scheduler. Call once,
     * after PdesScheduler::run() has returned. The output is
     * byte-identical for every worker-thread count.
     */
    void finish(TraceSink &out);

    /** Ring evictions across all shards (0 = complete trace). */
    std::uint64_t droppedEvents() const;

  private:
    struct Shard
    {
        PdesTracer *self = nullptr;
        std::uint32_t lp = 0;
        TraceSink sink;
        /** (ts, eot) points of the event-driven EOT envelope. */
        std::vector<std::pair<Tick, Tick>> eotPoints;
        bool open = false;
        std::uint64_t winIndex = 0;
        Tick firstTick = 0;
        Tick lastTick = 0;
        std::uint64_t events = 0;

        Shard(PdesTracer *s, std::uint32_t i, std::size_t cap)
            : self(s), lp(i), sink(cap)
        {}
    };

    static void tickThunk(void *ctx, Tick tick, std::uint64_t events);
    void onTick(Shard &shard, Tick tick, std::uint64_t events);
    void closeWindow(Shard &shard);
    void detach();

    PdesScheduler &sched_;
    Tick window_;
    /** Stable addresses: the tick observers hold shard pointers. */
    std::deque<Shard> shards_;
    bool attached_ = false;
    bool finished_ = false;
};

} // namespace macrosim

#endif // MACROSIM_SIM_TELEMETRY_PDES_TRACE_HH
