#include "sim/event.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "sim/logging.hh"
#include "sim/telemetry/registry.hh"

namespace macrosim
{

namespace
{

/** Split an EventId into (gen, slot index); slot is biased by one so
 *  invalidEventId (0) never decodes to a valid slot. */
constexpr std::uint32_t
idSlotPlusOne(EventId id)
{
    return static_cast<std::uint32_t>(id & 0xffffffffu);
}

constexpr std::uint32_t
idGen(EventId id)
{
    return static_cast<std::uint32_t>(id >> 32);
}

} // namespace

EventQueue::~EventQueue()
{
    // Pending callbacks in any tier die here, each exactly once.
    for (std::uint32_t i = 0; i < slotCount_; ++i)
        std::destroy_at(&slotAt(i));
    std::allocator<Slot> alloc;
    for (Slot *chunk : chunks_)
        alloc.deallocate(chunk, slotsPerChunk);
}

void
EventQueue::pastPanic(const char *fn, Tick when) const
{
    panic("EventQueue::", fn, ": tried to schedule at tick ", when,
          " which is before now (", now_, ")");
}

void
EventQueue::keyPanic(std::uint64_t key)
{
    panic("EventQueue::scheduleKeyed: key ", key, " uses the "
          "keyed-record marker bit");
}

void
EventQueue::unreservedPanic(std::uint64_t seq) const
{
    panic("EventQueue::scheduleReserved: seq ", seq,
          " was never reserved (next is ", nextSeq_, ")");
}

void
EventQueue::emptyCallbackPanic()
{
    panic("EventQueue::schedule: empty callback");
}

void
EventQueue::growArena()
{
    if (slotCount_ > std::numeric_limits<std::uint32_t>::max() - 2) {
        panic("EventQueue: slot arena overflow (", slotCount_,
              " concurrent events)");
    }
    if (slotCount_ == chunks_.size() * slotsPerChunk) {
        // Reserve first, so the push cannot throw and leak the chunk.
        chunks_.reserve(chunks_.size() + 1);
        chunks_.push_back(std::allocator<Slot>().allocate(slotsPerChunk));
        // The free list can now take back every slot without
        // allocating, even while a throwing callback unwinds.
        freeSlots_.reserve(chunks_.size() * slotsPerChunk);
    }
    std::construct_at(&slotAt(slotCount_));
    freeSlots_.push_back(slotCount_++);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Slot &s = slotAt(slot);
    s.cb = nullptr;
    s.tombstone = false;
    freeSlots_.push_back(slot);
}

void
EventQueue::enqueue(const Record &rec)
{
    file(rec);
    ++pending_;
    if (pending_ > stats_.peakPending)
        stats_.peakPending = pending_;
}

Tick
EventQueue::peekNextTick()
{
    return settle() ? heap_[0].when : maxTick;
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t biased = idSlotPlusOne(id);
    if (biased == 0 || biased > slotCount_)
        return false;
    Slot &s = slotAt(biased - 1);
    // Executed/running/cancelled slots have moved on a generation;
    // free slots hold no callback.
    if (idGen(id) != s.gen || !s.cb)
        return false;
    ++s.gen;
    s.tombstone = true;
    s.cb = nullptr; // release captured state immediately
    --pending_;
    ++tombstones_;
    ++stats_.cancelled;
    maybeCompact();
    return true;
}

void
EventQueue::siftUp(std::size_t i)
{
    const Record rec = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / arity;
        if (!earlier(rec, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = rec;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    const Record rec = heap_[i];
    for (;;) {
        const std::size_t first = arity * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + arity, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (earlier(heap_[c], heap_[best]))
                best = c;
        }
        if (!earlier(heap_[best], rec))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = rec;
}

void
EventQueue::popRoot()
{
    const Record last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        siftDown(0);
    }
}

void
EventQueue::heapify()
{
    // Floyd heapify: (when, seq) is a strict total order, so any heap
    // built from the same records pops in exactly the same order.
    const std::size_t n = heap_.size();
    if (n > 1) {
        for (std::size_t i = (n - 2) / arity + 1; i-- > 0;)
            siftDown(i);
    }
}

EventQueue::Block *
EventQueue::takeBlock()
{
    if (freeBlocks_ == nullptr) {
        // Grow by a quarter (at least 64 blocks), so the pool ends
        // up with headroom over the far tier's peak and a busier
        // stretch later does not have to allocate.
        const std::size_t n = std::max<std::size_t>(64, blockCount_ / 4);
        blockChunks_.push_back(std::make_unique_for_overwrite<Block[]>(n));
        for (std::size_t i = 0; i < n; ++i)
            releaseBlock(&blockChunks_.back()[i]);
        blockCount_ += n;
    }
    Block *b = freeBlocks_;
    freeBlocks_ = b->next;
    return b;
}

void
EventQueue::releaseBlock(Block *b)
{
    b->next = freeBlocks_;
    freeBlocks_ = b;
}

void
EventQueue::file(const Record &rec)
{
    if (rec.when <= nearLast_) {
        heap_.push_back(rec);
        siftUp(heap_.size() - 1);
        return;
    }
    // when > nearLast_ and nearLast_ + 1 >= rungStart_, so this
    // cannot wrap.
    const Tick bucket = (rec.when - rungStart_) >> rungShift_;
    if (bucket < buckets_.size()) {
        append(buckets_[bucket], rec);
        return;
    }
    if (topSize_ == 0) {
        topMin_ = rec.when;
        topMax_ = rec.when;
    } else {
        topMin_ = std::min(topMin_, rec.when);
        topMax_ = std::max(topMax_, rec.when);
    }
    append(top_, rec);
    ++topSize_;
}

void
EventQueue::append(Block *&list, const Record &rec)
{
    Block *b = list;
    if (b == nullptr || b->count == Block::capacity) {
        Block *fresh = takeBlock();
        fresh->next = b;
        fresh->count = 0;
        list = b = fresh;
    }
    b->recs[b->count++] = rec;
}

void
EventQueue::drainToHeap(Block *&list)
{
    for (Block *b = list; b != nullptr;) {
        Block *next = b->next;
        heap_.insert(heap_.end(), b->recs, b->recs + b->count);
        releaseBlock(b);
        b = next;
    }
    list = nullptr;
}

std::size_t
EventQueue::sweep(Block *&list)
{
    std::size_t kept = 0;
    Block **link = &list;
    while (Block *b = *link) {
        std::uint32_t out = 0;
        for (std::uint32_t i = 0; i < b->count; ++i) {
            const Record rec = b->recs[i];
            if (slotAt(rec.slot).tombstone)
                freeSlot(rec.slot);
            else
                b->recs[out++] = rec;
        }
        b->count = out;
        kept += out;
        if (out == 0) {
            *link = b->next;
            releaseBlock(b);
        } else {
            link = &b->next;
        }
    }
    return kept;
}

Tick
EventQueue::bucketLast(std::size_t i) const
{
    // Every bucket starts at or before the greatest time the top held
    // when the rung was split, so the start itself cannot overflow.
    const Tick start = rungStart_ + (static_cast<Tick>(i) << rungShift_);
    const Tick width = (Tick(1) << rungShift_) - 1;
    return start > maxTick - width ? maxTick : start + width;
}

bool
EventQueue::refill()
{
    for (;;) {
        while (nextBucket_ < buckets_.size()) {
            const std::size_t i = nextBucket_++;
            // Advance the near boundary even past an empty bucket, so
            // a record scheduled into its range later joins the heap.
            nearLast_ = bucketLast(i);
            if (buckets_[i] == nullptr)
                continue;
            drainToHeap(buckets_[i]);
            heapify();
            return true;
        }
        if (topSize_ == 0)
            return false;
        buildRung();
        if (!heap_.empty())
            return true;
    }
}

void
EventQueue::buildRung()
{
    // Size the rung from a strided sample of the top's times rather
    // than its full range, so a few far-future records (a window end,
    // a fault timeline) cannot stretch the buckets over the dense
    // part: the rung reaches twice the sample's median offset past
    // the least time, and whatever lies beyond stays in the top.
    std::array<Tick, rungSample> sample;
    sample[0] = 0; // the top is not empty, so taken ends >= 1
    std::size_t taken = 0;
    const std::size_t stride = (topSize_ + rungSample - 1) / rungSample;
    std::size_t skip = 0;
    for (const Block *b = top_; b != nullptr && taken < rungSample;
         b = b->next) {
        std::size_t i = skip;
        for (; i < b->count && taken < rungSample; i += stride)
            sample[taken++] = b->recs[i].when - topMin_;
        skip = i - b->count;
    }
    Tick *const mid = sample.begin() + taken / 2;
    std::nth_element(sample.begin(), mid, sample.begin() + taken);
    const Tick span = std::min(*mid > maxTick / 2 ? maxTick : 2 * *mid,
                               topMax_ - topMin_);
    std::size_t inSample = 0;
    for (std::size_t i = 0; i < taken; ++i)
        inSample += sample[i] <= span;
    // The narrowest power-of-two width that spreads [topMin_,
    // topMin_ + span] over about one bucket per bucketTarget records.
    const std::uint64_t want =
        (topSize_ * inSample / taken + bucketTarget - 1) / bucketTarget;
    unsigned shift = 0;
    std::size_t count = 1;
    if (want > 1) {
        shift = static_cast<unsigned>(std::bit_width(span / want));
        count = static_cast<std::size_t>(span >> shift) + 1;
    }

    rungStart_ = topMin_;
    rungShift_ = shift;
    nextBucket_ = 0;
    Block *rest = top_;
    top_ = nullptr;
    topSize_ = 0;
    if (count == 1) {
        // One bucket: load it straight into the heap.
        buckets_.clear();
        nearLast_ = topMin_ + span;
    } else {
        // Everything before the new rung goes to the heap. topMin_
        // lies past the old nearLast_, so this cannot wrap.
        nearLast_ = rungStart_ - 1;
        if (count > buckets_.capacity())
            buckets_.reserve(std::max(count, 2 * buckets_.capacity()));
        buckets_.assign(count, nullptr);
        ++stats_.rungBuilds;
    }
    while (rest != nullptr) {
        Block *next = rest->next;
        for (std::uint32_t i = 0; i < rest->count; ++i)
            file(rest->recs[i]);
        releaseBlock(rest);
        rest = next;
    }
}

bool
EventQueue::settle()
{
    for (;;) {
        if (heap_.empty() && !refill())
            return false;
        const std::uint32_t slot = heap_[0].slot;
        if (!slotAt(slot).tombstone)
            return true;
        freeSlot(slot);
        --tombstones_;
        popRoot();
    }
}

void
EventQueue::completeTick()
{
    if (tickObs_ != nullptr)
        tickObs_(tickCtx_, lastExecTick_, burst_);
    std::size_t b = 0;
    while (b + 1 < EventQueueStats::burstBuckets &&
           (burst_ >> (b + 1)) != 0)
        ++b;
    ++stats_.burstHist[b];
}

void
EventQueue::executeRoot()
{
    const Record root = heap_[0];
    popRoot();
    Slot &s = slotAt(root.slot);
    ++s.gen; // no longer pending: cancel() of its id now misses
    now_ = root.when;
    --pending_;
    ++stats_.executed;
    if (burst_ > 0 && root.when == lastExecTick_) {
        ++burst_;
    } else {
        // Crossing a tick boundary completes the previous tick: its
        // event count is final, so report it before restarting the
        // burst. Same-tick events always execute consecutively (the
        // queue is tick-ordered), so burst_ *is* the per-tick count.
        if (burst_ > 0)
            completeTick();
        burst_ = 1;
    }
    lastExecTick_ = root.when;
    if (burst_ > stats_.maxSameTickBurst)
        stats_.maxSameTickBurst = burst_;
    if (!heap_.empty())
        __builtin_prefetch(&slotAt(heap_[0].slot));
    // All bookkeeping is consistent before the callback runs, so it
    // may freely schedule() and cancel(). It runs in its slot, which
    // stays claimed until it returns or throws; arena growth never
    // moves a slot.
    struct Release
    {
        EventQueue &q;
        std::uint32_t slot;
        ~Release() { q.freeSlots_.push_back(slot); }
    } release{*this, root.slot};
    if (!profiling_) {
        s.cb.invokeOnce();
        return;
    }
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    s.cb.invokeOnce();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count();
    ProfileBucket &bucket = profileBucketFor(s.tag);
    ++bucket.count;
    bucket.wallNs += ns;
}

EventQueue::ProfileBucket &
EventQueue::profileBucketFor(const char *tag)
{
    // Fast path: this exact pointer has been seen before.
    auto it = profileIds_.find(tag);
    if (it != profileIds_.end())
        return profileTags_[it->second].bucket;
    // Slow path (once per distinct pointer): intern by content so
    // identical literals from different translation units — or a
    // caller's transient buffer matching an existing tag — share one
    // bucket, and the text is copied into storage the queue owns.
    const std::string_view name =
        tag ? std::string_view(tag) : std::string_view("(untagged)");
    std::uint32_t id = 0;
    for (; id < profileTags_.size(); ++id) {
        if (profileTags_[id].name == name)
            break;
    }
    if (id == profileTags_.size())
        profileTags_.push_back(InternedTag{std::string(name), {}});
    profileIds_.try_emplace(tag, id);
    return profileTags_[id].bucket;
}

void
EventQueue::maybeCompact()
{
    if (tombstones_ >= compactMinTombstones && tombstones_ > pending_)
        compact();
}

void
EventQueue::compact()
{
    std::size_t out = 0;
    for (const Record &rec : heap_) {
        if (slotAt(rec.slot).tombstone)
            freeSlot(rec.slot);
        else
            heap_[out++] = rec;
    }
    heap_.resize(out);
    heapify();
    for (std::size_t i = nextBucket_; i < buckets_.size(); ++i)
        sweep(buckets_[i]);
    topSize_ = sweep(top_);
    tombstones_ = 0;
    ++stats_.compactions;
}

bool
EventQueue::runOne()
{
    if (!settle())
        return false;
    executeRoot();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t ran = 0;
    // settle() clears tombstones first: a cancelled record with
    // when <= limit must not let an event beyond the limit run (nor
    // drag now() past it).
    while (settle() && heap_[0].when <= limit) {
        executeRoot();
        ++ran;
    }
    return ran;
}

void
EventQueue::flushTickObserver()
{
    if (burst_ > 0) {
        completeTick();
        // Forget the in-progress burst so a flush never
        // double-reports; the intended call site is end-of-run.
        burst_ = 0;
    }
}

void
EventQueue::regStats(StatRegistry &registry,
                     const std::string &prefix) const
{
    const EventQueueStats *s = &stats_;
    registry.add(prefix + ".scheduled", [s] {
        return static_cast<double>(s->scheduled);
    });
    registry.add(prefix + ".cancelled", [s] {
        return static_cast<double>(s->cancelled);
    });
    registry.add(prefix + ".executed", [s] {
        return static_cast<double>(s->executed);
    });
    registry.add(prefix + ".peak_pending", [s] {
        return static_cast<double>(s->peakPending);
    });
    registry.add(prefix + ".compactions", [s] {
        return static_cast<double>(s->compactions);
    });
    registry.add(prefix + ".rung_builds", [s] {
        return static_cast<double>(s->rungBuilds);
    });
    registry.add(prefix + ".max_same_tick_burst", [s] {
        return static_cast<double>(s->maxSameTickBurst);
    });
    // Bucket ge_N counts completed ticks whose burst size lies in
    // [N, 2N); the last bucket is unbounded above.
    for (std::size_t b = 0; b < EventQueueStats::burstBuckets; ++b) {
        registry.add(prefix + ".burst_hist.ge_" +
                         std::to_string(std::uint64_t(1) << b),
                     [s, b] {
                         return static_cast<double>(s->burstHist[b]);
                     });
    }
}

std::vector<EventProfileEntry>
EventQueue::profile() const
{
    std::vector<EventProfileEntry> rows;
    rows.reserve(profileTags_.size());
    for (const InternedTag &t : profileTags_)
        rows.push_back({t.name, t.bucket.count, t.bucket.wallNs});
    std::sort(rows.begin(), rows.end(),
              [](const EventProfileEntry &a,
                 const EventProfileEntry &b) {
                  if (a.wallNs != b.wallNs)
                      return a.wallNs > b.wallNs;
                  return a.tag < b.tag;
              });
    return rows;
}

void
EventQueue::dumpProfile(std::ostream &os) const
{
    const std::vector<EventProfileEntry> rows = profile();
    double total_ns = 0.0;
    for (const EventProfileEntry &r : rows)
        total_ns += r.wallNs;
    char line[160];
    std::snprintf(line, sizeof(line), "%-28s %12s %12s %10s %6s\n",
                  "event tag", "count", "total ms", "avg ns", "%");
    os << line;
    for (const EventProfileEntry &r : rows) {
        std::snprintf(
            line, sizeof(line), "%-28.*s %12llu %12.3f %10.1f %6.2f\n",
            static_cast<int>(r.tag.size()), r.tag.data(),
            static_cast<unsigned long long>(r.count), r.wallNs * 1e-6,
            r.count ? r.wallNs / static_cast<double>(r.count) : 0.0,
            total_ns > 0.0 ? r.wallNs / total_ns * 100.0 : 0.0);
        os << line;
    }
}

} // namespace macrosim
