/**
 * @file
 * Discrete-event core: EventQueue and scheduling handles.
 *
 * The queue delivers callbacks in (tick, insertion-order) order, so
 * same-tick events run FIFO and every run is deterministic. Events may
 * be cancelled through the EventId returned by schedule().
 *
 * Layout: an explicit 4-ary heap of small (when, seq, slot) records
 * over a contiguous slot arena that owns the callbacks. An EventId
 * encodes (generation, slot), so cancel() is a bounds check plus two
 * array writes — no hash lookup anywhere on the schedule/cancel/run
 * path. Cancellation tombstones the slot in place and releases the
 * callback immediately (captured state, e.g. Message payloads, is
 * freed promptly); tombstoned heap records are skipped at pop time
 * and swept out wholesale when they exceed half the heap.
 */

#ifndef MACROSIM_SIM_EVENT_HH
#define MACROSIM_SIM_EVENT_HH

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/inline_callback.hh"
#include "sim/ticks.hh"

namespace macrosim
{

class StatRegistry;

/**
 * Opaque identifier for a scheduled event; used for cancellation.
 * Encodes (slot generation << 32 | slot index + 1), so stale handles
 * — already run, already cancelled, or never issued — are rejected in
 * O(1) without any lookup structure.
 */
using EventId = std::uint64_t;

/** An EventId value that is never returned by schedule(). */
constexpr EventId invalidEventId = 0;

/**
 * Observability counters for one EventQueue. Plain fields keep the
 * hot path branch-free; registration with a StatGroup happens via
 * EventQueue::regStats().
 */
struct EventQueueStats
{
    /** Power-of-two burst-histogram buckets: bucket k counts
     *  completed ticks whose event count lies in [2^k, 2^(k+1));
     *  the last bucket is unbounded above. */
    static constexpr std::size_t burstBuckets = 16;

    /** Events accepted by schedule(). */
    std::uint64_t scheduled = 0;
    /** Successful cancel() calls. */
    std::uint64_t cancelled = 0;
    /** Events whose callback ran. */
    std::uint64_t executed = 0;
    /** High-water mark of pending (uncancelled) events. */
    std::uint64_t peakPending = 0;
    /** Tombstone sweeps of the heap (see EventQueue::compact()). */
    std::uint64_t compactions = 0;
    /** Longest run of consecutively executed same-tick events. */
    std::uint64_t maxSameTickBurst = 0;
    /** Same-tick burst-size histogram over completed ticks. A tick
     *  completes when a later tick's first event executes or
     *  flushTickObserver() runs, same as the tick observer. */
    std::uint64_t burstHist[burstBuckets] = {};
};

/**
 * One row of the event-loop self-profile: every event scheduled with
 * the same tag aggregates its invocation count and the wall-clock
 * time its callbacks consumed. Untagged events aggregate under
 * "(untagged)".
 */
struct EventProfileEntry
{
    std::string_view tag;
    std::uint64_t count = 0;
    /** Wall-clock (not simulated) time spent in the callbacks, ns. */
    double wallNs = 0.0;
};

/**
 * A time-ordered queue of callbacks.
 *
 * Not a singleton: each Simulator owns one, so multiple simulations can
 * coexist (the benchmark harness runs hundreds back to back).
 */
class EventQueue
{
  public:
    /** Scheduled callbacks live inline in the slot arena — captures
     *  must fit InlineCallback's buffer (compile-time checked), so
     *  schedule()/execute never touch the heap. */
    using Callback = InlineCallback;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @p tag names the event's type for the event-loop profiler; it
     * must point at storage outliving the queue (string literals).
     * Tagging costs nothing when profiling is off.
     *
     * @pre when >= now(): the past is immutable.
     * @pre cb is callable.
     * @return A handle usable with cancel().
     */
    EventId schedule(Tick when, Callback cb,
                     const char *tag = nullptr);

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId
    scheduleAfter(Tick delay, Callback cb, const char *tag = nullptr)
    {
        return schedule(now_ + delay, std::move(cb), tag);
    }

    /**
     * Schedule @p cb with an explicit same-tick ordering key instead
     * of insertion order. Keyed events run after every plain event of
     * the same tick, ordered among themselves by ascending @p key.
     *
     * This is the parallel-in-model determinism hook: cross-LP
     * deliveries arrive in whatever real-time order the worker
     * threads produce, so insertion order is not reproducible — but a
     * key derived from the message's causal identity (source site and
     * per-source sequence) is identical for every LP/thread count.
     * Plain schedule() ordering is untouched, so single-queue
     * simulations stay byte-identical to their historical streams.
     *
     * @pre key < 2^63 (the top bit marks keyed records internally).
     * @pre At most one keyed event per (when, key) pair — duplicate
     *      pairs would tie and fall back to unspecified order.
     */
    EventId scheduleKeyed(Tick when, std::uint64_t key, Callback cb,
                          const char *tag = nullptr);

    /**
     * Timestamp of the earliest pending event, or maxTick when the
     * queue is empty. Sweeps cancelled tombstones off the top, hence
     * non-const. The PDES horizon protocol publishes this as the
     * earliest tick this LP could still execute.
     */
    Tick peekNextTick();

    /**
     * Cancel a pending event.
     *
     * The callback (and everything it captured) is destroyed before
     * this returns; the heap record lingers as a tombstone until it
     * reaches the top or a compaction sweeps it.
     *
     * @return true if the event was pending and is now cancelled;
     *         false if it already ran, was already cancelled, or the
     *         id is invalid.
     */
    bool cancel(EventId id);

    /** Whether any uncancelled event is pending. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending (uncancelled) events. */
    std::size_t size() const { return pending_; }

    /**
     * Run the next pending event (advancing now()).
     *
     * @return true if an event ran; false if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until the queue drains or the next *pending* event
     * lies beyond @p limit. Events scheduled exactly at @p limit
     * still run; now() never advances past @p limit here, even when
     * cancelled tombstones with earlier timestamps top the heap.
     *
     * @return The number of events executed.
     */
    std::uint64_t runUntil(Tick limit = maxTick);

    /** Total events executed since construction. */
    std::uint64_t executed() const { return stats_.executed; }

    /** Observability counters (monotonic since construction). */
    const EventQueueStats &stats() const { return stats_; }

    /**
     * Register the stats with @p registry as "<prefix>.scheduled"
     * etc. The queue must outlive any dump through @p registry.
     */
    void regStats(StatRegistry &registry,
                  const std::string &prefix = "simcore") const;

    /**
     * Enable/disable the event-loop self-profiler. When enabled,
     * every executed event's wall-clock time and invocation count is
     * attributed to its schedule() tag. Costs two clock reads per
     * event while on; entirely branch-predictable while off.
     * Profiling never perturbs simulated time or event order.
     */
    void setProfiling(bool on) { profiling_ = on; }
    bool profiling() const { return profiling_; }

    /**
     * The accumulated self-profile, sorted by descending wall time
     * (ties by tag). Counts are exact; times are wall-clock and thus
     * machine-dependent.
     */
    std::vector<EventProfileEntry> profile() const;

    /** Dump the self-profile as an aligned table. */
    void dumpProfile(std::ostream &os) const;

    /**
     * Callback fired once per *completed* executed tick with the
     * number of events that ran at it. Plain function pointer plus
     * context, so installing one costs a single predictable branch on
     * the execute path when unset.
     */
    using TickObserver = void (*)(void *ctx, Tick tick,
                                  std::uint64_t events);

    /**
     * Install (or clear, with nullptr) the tick observer. The
     * observer sees the deterministic execution stream — (tick,
     * events-at-tick) pairs in nondecreasing tick order — and nothing
     * about real time, which is what makes it usable for
     * thread-count-invariant tracing of parallel-in-model runs. A
     * tick is reported when the first event of a *later* tick
     * executes; the final tick stays buffered until
     * flushTickObserver().
     */
    void
    setTickObserver(TickObserver fn, void *ctx)
    {
        tickObs_ = fn;
        tickCtx_ = ctx;
    }

    /**
     * Report the still-buffered last executed tick to the observer
     * (if any events ran since the previous report) and reset the
     * burst tracking. Call when no more events will run — e.g. at the
     * end of a PDES run — so the stream is complete.
     */
    void flushTickObserver();

  private:
    /** Children per heap node; 4 keeps the tree shallow and the
     *  sift-down child scan within one cache line of records. */
    static constexpr std::size_t arity = 4;

    /** Sweep tombstones once they are this many and outnumber live
     *  records (see maybeCompact()). */
    static constexpr std::uint64_t compactMinTombstones = 64;

    /** Arena cell owning one scheduled callback.
     *
     *  Lifecycle: free (no cb, no tombstone) -> live (cb set) ->
     *  either executed (freed straight away) or tombstoned (cb
     *  destroyed, flag set) until its heap record is popped or swept,
     *  then free again with gen bumped so stale EventIds miss.
     */
    struct Slot
    {
        Callback cb;
        /** Profiler tag; nullptr = untagged. Kept even when
         *  profiling is off so the profiler can be flipped on
         *  mid-simulation. */
        const char *tag = nullptr;
        std::uint32_t gen = 0;
        bool tombstone = false;
    };

    /** Per-tag profile accumulator (see EventProfileEntry). */
    struct ProfileBucket
    {
        std::uint64_t count = 0;
        double wallNs = 0.0;
    };

    /** One interned profiler tag: an owned copy of the tag text plus
     *  its accumulator. Lives in a deque so EventProfileEntry views
     *  into `name` stay stable as tags keep arriving. */
    struct InternedTag
    {
        std::string name;
        ProfileBucket bucket;
    };

    /** Heap record: 24 bytes, trivially copyable, no callback. */
    struct HeapRecord
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Keyed records set this bit in `seq`, with the caller's key in
     *  the low bits: they sort after every plain record of their tick
     *  (insertion counters stay far below 2^63) and by key among
     *  themselves, so (when, seq) stays a strict total order. */
    static constexpr std::uint64_t keyedSeqBit = 1ULL << 63;

    static bool
    earlier(const HeapRecord &a, const HeapRecord &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    std::uint32_t allocSlot(Callback cb, const char *tag);
    void freeSlot(std::uint32_t slot);

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    void popRoot();

    /** Drop tombstoned records off the top of the heap. */
    void skipCancelled();

    /** Pop and run the root record. @pre root is pending. */
    void executeRoot();

    /** Report the in-progress tick to the observer and histogram. */
    void completeTick();

    /** Rebuild the heap without tombstones when they dominate. */
    void maybeCompact();
    void compact();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t tombstones_ = 0;

    /** Same-tick burst tracking (stats + tick observer). */
    Tick lastExecTick_ = 0;
    std::uint64_t burst_ = 0;

    TickObserver tickObs_ = nullptr;
    void *tickCtx_ = nullptr;

    std::vector<HeapRecord> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    EventQueueStats stats_;

    /** Bucket for @p tag, interning it on first sight. */
    ProfileBucket &profileBucketFor(const char *tag);

    /** Event-loop self-profiler. Tags are interned: the fast path
     *  maps the tag *pointer* to a bucket id (one FlatMap probe), and
     *  first sight of a new pointer falls back to a content compare
     *  so the same literal in two translation units still shares a
     *  bucket. Interning copies the text into stable storage, so a
     *  tag may die before the queue — the old string_view-keyed map
     *  dangled in that case. */
    bool profiling_ = false;
    FlatMap<const char *, std::uint32_t> profileIds_;
    std::deque<InternedTag> profileTags_;
};

} // namespace macrosim

#endif // MACROSIM_SIM_EVENT_HH
