/**
 * @file
 * Discrete-event core: EventQueue and scheduling handles.
 *
 * The queue delivers callbacks in (tick, insertion-order) order, so
 * same-tick events run FIFO and every run is deterministic. Events may
 * be cancelled through the EventId returned by schedule().
 *
 * Layout: each pending event is a 24-byte (when, seq, slot) record
 * pointing into a slot arena that owns the callbacks. Records sit in
 * two tiers. The near tier is a 4-ary heap holding every record up to
 * the end of the last loaded bucket. The far tier is a ladder queue
 * (Tang, Goh and Thng, ACM TOMACS 2005) cut to one rung: an unsorted
 * top, and one rung of power-of-two-width buckets split from it. Both
 * keep their records in fixed-size blocks from one recycled pool.
 * When the heap runs dry the next non-empty bucket is heapified into
 * it, and when the rung runs dry the top is split into a new rung, so
 * the heap holds about one bucket's worth of records however many
 * events are pending. Tiers split records by `when` only and
 * (when, seq) is a strict total order, so the tiering cannot change
 * the pop order.
 *
 * schedule() builds the callable in its slot and the event runs it
 * there: the arena grows in fixed chunks, so a slot never moves. An
 * EventId encodes (generation, slot), so cancel() is a bounds check
 * plus a few writes to the slot, with no lookup structure. Cancelling
 * tombstones the slot in place and releases the callback at once
 * (captured state, e.g. Message payloads, is freed promptly);
 * tombstoned records are skipped when they reach the heap top, and
 * swept out of every tier once they outnumber the live ones.
 */

#ifndef MACROSIM_SIM_EVENT_HH
#define MACROSIM_SIM_EVENT_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
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
 * hot path branch-free; registration with a StatRegistry happens via
 * EventQueue::regStats().
 */
struct EventQueueStats
{
    /** Power-of-two burst-histogram buckets: bucket k counts
     *  completed ticks whose event count lies in [2^k, 2^(k+1));
     *  the last bucket is unbounded above. */
    static constexpr std::size_t burstBuckets = 16;

    /** Events accepted by schedule() and scheduleKeyed(), plus seqs
     *  handed out by reserveSeq(). */
    std::uint64_t scheduled = 0;
    /** Successful cancel() calls. */
    std::uint64_t cancelled = 0;
    /** Events whose callback ran. */
    std::uint64_t executed = 0;
    /** High-water mark of pending (uncancelled) events. */
    std::uint64_t peakPending = 0;
    /** Tombstone sweeps of every tier (see EventQueue::compact()). */
    std::uint64_t compactions = 0;
    /** Rungs of buckets split from the top. A top small enough for
     *  one bucket goes straight to the heap and does not count. */
    std::uint64_t rungBuilds = 0;
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

    /** Slots per arena chunk. The arena grows a chunk at a time, so
     *  a callback never moves between schedule() and its run. */
    static constexpr std::size_t slotsPerChunk = 1024;

    EventQueue() = default;
    /** Destroys every pending callback, each exactly once. */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when. The callable is
     * built in its event slot and later runs there; passing an
     * InlineCallback object moves it in instead.
     *
     * @p tag names the event's type for the event-loop profiler; it
     * must point at storage outliving the queue (string literals).
     * Tagging costs nothing when profiling is off.
     *
     * @pre when >= now(): the past is immutable.
     * @pre fn is callable.
     * @return A handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Tick when, F &&fn, const char *tag = nullptr)
    {
        if (when < now_)
            pastPanic("schedule", when);
        const EventId id =
            add(when, nextSeq_++, std::forward<F>(fn), tag);
        ++stats_.scheduled;
        return id;
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    EventId
    scheduleAfter(Tick delay, F &&fn, const char *tag = nullptr)
    {
        return schedule(now_ + delay, std::forward<F>(fn), tag);
    }

    /**
     * Schedule @p fn with an explicit same-tick ordering key instead
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
    template <typename F>
    EventId
    scheduleKeyed(Tick when, std::uint64_t key, F &&fn,
                  const char *tag = nullptr)
    {
        if (when < now_)
            pastPanic("scheduleKeyed", when);
        if (key >= keyedSeqBit)
            keyPanic(key);
        const EventId id =
            add(when, keyedSeqBit | key, std::forward<F>(fn), tag);
        ++stats_.scheduled;
        return id;
    }

    /**
     * Take the insertion seq a schedule() call would take now, and
     * count the event as scheduled, without filing it. The caller
     * files it later with scheduleReserved(); it then pops exactly
     * where a schedule() made at the reservation would have popped.
     * This is how a channel keeps the packets queued behind its head
     * out of the queue (net/arrival_fifo.hh).
     */
    std::uint64_t
    reserveSeq()
    {
        ++stats_.scheduled;
        return nextSeq_++;
    }

    /**
     * File @p fn at @p when under @p seq, a value from reserveSeq().
     * Same-tick order follows the seq, not the filing time.
     *
     * @pre when >= now().
     * @pre seq came from reserveSeq() and was not filed before.
     * @return A handle usable with cancel().
     */
    template <typename F>
    EventId
    scheduleReserved(Tick when, std::uint64_t seq, F &&fn,
                     const char *tag = nullptr)
    {
        if (when < now_)
            pastPanic("scheduleReserved", when);
        if (seq >= nextSeq_)
            unreservedPanic(seq);
        return add(when, seq, std::forward<F>(fn), tag);
    }

    /**
     * Timestamp of the earliest pending event in any tier, or maxTick
     * when the queue is empty. Sweeps cancelled tombstones off the
     * heap top and may load the next bucket, hence non-const; neither
     * moves now(). The PDES horizon protocol publishes this as the
     * earliest tick this LP could still execute.
     */
    Tick peekNextTick();

    /**
     * Cancel a pending event.
     *
     * The callback (and everything it captured) is destroyed before
     * this returns; the record lingers as a tombstone until it
     * reaches the heap top or a compaction sweeps it.
     *
     * @return true if the event was pending and is now cancelled;
     *         false if it already ran, is running, was already
     *         cancelled, or the id is invalid.
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
     * cancelled tombstones with earlier timestamps top the heap or
     * the next bucket to load starts beyond it. An exception thrown
     * by a callback propagates out with the queue consistent: the
     * event counts as executed and the rest stay pending.
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

    /** Records per bucket when a rung is split from the top. The
     *  heap holds about this many records plus the ones scheduled
     *  into the loaded bucket's time range. */
    static constexpr std::size_t bucketTarget = 32;

    /** Top records sampled to size a rung (see buildRung()). */
    static constexpr std::size_t rungSample = 32;

    /** Sweep tombstones once they are this many and outnumber live
     *  records (see maybeCompact()). */
    static constexpr std::uint64_t compactMinTombstones = 64;

    /** Arena cell owning one scheduled callback.
     *
     *  Lifecycle: free (no cb) -> live (cb set) -> either running
     *  (gen bumped, cb runs in place, freed when it returns) or
     *  tombstoned (gen bumped, cb destroyed, flag set) until its
     *  record is popped or swept, then free again. The generation
     *  moves whenever an event stops being pending, so stale
     *  EventIds miss.
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

    /** Pending-event record: 24 bytes, trivially copyable, no
     *  callback. Every tier stores these. */
    struct Record
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** A fixed-size run of records. Buckets and the top are chains
     *  of these from one pool, filled at the head; 20 records and the
     *  header take 496 bytes. */
    struct Block
    {
        static constexpr std::size_t capacity = 20;
        Block *next;
        std::uint32_t count;
        Record recs[capacity];
    };

    /** Keyed records set this bit in `seq`, with the caller's key in
     *  the low bits: they sort after every plain record of their tick
     *  (insertion counters stay far below 2^63) and by key among
     *  themselves, so (when, seq) stays a strict total order. */
    static constexpr std::uint64_t keyedSeqBit = 1ULL << 63;

    static bool
    earlier(const Record &a, const Record &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    Slot &
    slotAt(std::uint32_t slot)
    {
        return chunks_[slot / slotsPerChunk][slot % slotsPerChunk];
    }

    /** Build @p fn in a free slot, claim it and file its record. A
     *  throwing build leaves the slot free and the queue unchanged. */
    template <typename F>
    EventId
    add(Tick when, std::uint64_t seq, F &&fn, const char *tag)
    {
        if (freeSlots_.empty())
            growArena();
        const std::uint32_t slot = freeSlots_.back();
        Slot &s = slotAt(slot);
        s.cb.emplace(std::forward<F>(fn));
        if (!s.cb)
            emptyCallbackPanic();
        s.tag = tag;
        freeSlots_.pop_back();
        enqueue(Record{when, seq, slot});
        // The id's low word is the slot plus one, so it is never
        // invalidEventId.
        return (static_cast<EventId>(s.gen) << 32) | (slot + 1ULL);
    }

    [[noreturn]] void pastPanic(const char *fn, Tick when) const;
    [[noreturn]] static void keyPanic(std::uint64_t key);
    [[noreturn]] void unreservedPanic(std::uint64_t seq) const;
    [[noreturn]] static void emptyCallbackPanic();

    /** Construct one more slot (a new chunk when the last is full)
     *  and put it on the free list. */
    void growArena();
    /** Return a slot whose event ran or was cancelled to the free
     *  list, destroying whatever callback it still holds. */
    void freeSlot(std::uint32_t slot);

    /** File a newly scheduled @p rec and count it pending. */
    void enqueue(const Record &rec);
    /** Put @p rec in the tier its `when` belongs to. */
    void file(const Record &rec);

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    void popRoot();
    void heapify();

    Block *takeBlock();
    void releaseBlock(Block *b);
    /** Add @p rec to the block chain @p list. */
    void append(Block *&list, const Record &rec);
    /** Move every record of @p list to the heap's end, returning its
     *  blocks to the pool. */
    void drainToHeap(Block *&list);
    /** Drop and free @p list's tombstones; @return the survivors. */
    std::size_t sweep(Block *&list);

    /** Last tick of bucket @p i, saturating at maxTick. */
    Tick bucketLast(std::size_t i) const;

    /** Refill the empty heap from the next non-empty bucket, splitting
     *  a new rung from the top when the rung is used up.
     *  @return false if no record is left in any tier. */
    bool refill();
    /** Split the top into a new rung, or straight into the heap when
     *  one bucket would do; records past the new rung stay in the
     *  top. @pre the heap and the rung are empty, the top is not. */
    void buildRung();

    /** Drop tombstones off the heap top, refilling the heap as
     *  needed. @return true if heap_[0] is a pending event. */
    bool settle();

    /** Pop and run the root record. @pre root is pending. */
    void executeRoot();

    /** Report the in-progress tick to the observer and histogram. */
    void completeTick();

    /** Sweep tombstones out of every tier when they dominate. */
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

    /** Near tier: a heap of every record with when <= nearLast_. */
    std::vector<Record> heap_;
    Tick nearLast_ = 0;

    /** The rung: bucket i chains the records with when in
     *  [rungStart_ + i * 2^rungShift_, rungStart_ + (i + 1) *
     *  2^rungShift_); buckets before nextBucket_ are loaded. */
    std::vector<Block *> buckets_;
    std::size_t nextBucket_ = 0;
    Tick rungStart_ = 0;
    unsigned rungShift_ = 0;

    /** The top: records past the rung's end, unsorted, with bounds
     *  on their `when` for the next rung split. */
    Block *top_ = nullptr;
    std::size_t topSize_ = 0;
    Tick topMin_ = 0;
    Tick topMax_ = 0;

    /** Record block pool: every block ever allocated (blockCount_)
     *  is owned here; unused ones are chained through `next` from
     *  freeBlocks_. */
    std::vector<std::unique_ptr<Block[]>> blockChunks_;
    std::size_t blockCount_ = 0;
    Block *freeBlocks_ = nullptr;

    /** Slot arena: chunks of slotsPerChunk slots, constructed one at
     *  a time on first claim (slotCount_ so far). */
    std::vector<Slot *> chunks_;
    std::uint32_t slotCount_ = 0;
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
