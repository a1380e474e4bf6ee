/**
 * @file
 * Event-core stress test: randomized interleavings of
 * schedule/scheduleKeyed/reserveSeq/scheduleReserved/cancel/runOne/
 * runUntil are applied to the real EventQueue and to a naive reference
 * model (a sorted std::map in (tick, plain before keyed, insertion
 * order or key) order), asserting identical execution order, now()
 * trajectory, and size() at every step. The
 * shallow cases keep a few hundred events pending; the deep ones keep
 * tens of thousands spread over 10^7 ticks, so records cross the heap,
 * the rung's buckets and the top, and cancels tombstone all three.
 * Runs under MACROSIM_SANITIZE=address cleanly — the arena recycling,
 * block pool and tombstone compaction paths get hammered hard here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sim/event.hh"
#include "sim/random.hh"

namespace
{

using namespace macrosim;

/**
 * The semantics of EventQueue, written as artlessly as possible: a
 * map from (tick, keyed?, insertion seq or key) to tag — plain events
 * of a tick in insertion order, then its keyed events by ascending
 * key — for the live events. Cancelled entries stay behind as
 * tombstones, dropped when they precede the earliest live entry at a
 * run or peek, and all swept at once under the queue's compaction
 * policy (at least 64 of them, outnumbering the live ones), so the
 * model predicts how often the real queue compacts.
 */
class ReferenceQueue
{
  public:
    std::uint64_t
    schedule(Tick when, int tag)
    {
        return insert(Key{when, false, nextSeq_++}, tag);
    }

    std::uint64_t
    scheduleKeyed(Tick when, std::uint64_t key, int tag)
    {
        return insert(Key{when, true, key}, tag);
    }

    /** The insertion seq a schedule() would take now. */
    std::uint64_t reserveSeq() { return nextSeq_++; }

    /** File at @p when under a seq from reserveSeq(): it sorts as a
     *  plain event inserted at the reservation. */
    std::uint64_t
    scheduleReserved(Tick when, std::uint64_t seq, int tag)
    {
        return insert(Key{when, false, seq}, tag);
    }

    bool
    cancel(int tag)
    {
        const auto it = keys_.find(tag);
        if (it == keys_.end())
            return false;
        queue_.erase(it->second);
        dead_.insert(it->second);
        keys_.erase(it);
        if (dead_.size() >= 64 && dead_.size() > queue_.size()) {
            dead_.clear();
            ++compactions_;
        }
        return true;
    }

    bool
    runOne(std::vector<int> &order)
    {
        peekNextTick();
        if (queue_.empty())
            return false;
        const auto it = queue_.begin();
        now_ = std::get<0>(it->first);
        order.push_back(it->second);
        keys_.erase(it->second);
        queue_.erase(it);
        return true;
    }

    std::uint64_t
    runUntil(Tick limit, std::vector<int> &order)
    {
        std::uint64_t ran = 0;
        // Skip dead entries first so a cancelled early entry cannot
        // admit a live one beyond the limit.
        while (peekNextTick() <= limit && runOne(order))
            ++ran;
        return ran;
    }

    /** Tick of the earliest live entry, or maxTick; drops the
     *  tombstones before it. */
    Tick
    peekNextTick()
    {
        while (!dead_.empty() &&
               (queue_.empty() || *dead_.begin() < queue_.begin()->first))
            dead_.erase(dead_.begin());
        return queue_.empty() ? maxTick : std::get<0>(queue_.begin()->first);
    }

    /** Tag of the earliest live entry, or -1. */
    int
    earliestLive() const
    {
        return queue_.empty() ? -1 : queue_.begin()->second;
    }

    /** Tag of the latest live entry, or -1. */
    int
    latestLive() const
    {
        return queue_.empty() ? -1 : queue_.rbegin()->second;
    }

    Tick now() const { return now_; }
    std::size_t size() const { return queue_.size(); }
    std::uint64_t compactions() const { return compactions_; }

  private:
    using Key = std::tuple<Tick, bool, std::uint64_t>;

    std::uint64_t
    insert(const Key &key, int tag)
    {
        EXPECT_GE(std::get<0>(key), now_);
        EXPECT_TRUE(queue_.emplace(key, tag).second);
        keys_[tag] = key;
        return static_cast<std::uint64_t>(tag);
    }

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t compactions_ = 0;
    std::map<Key, int> queue_;
    std::unordered_map<int, Key> keys_;
    std::set<Key> dead_;
};

/** One full random interleaving with a given op mix. */
void
stressRun(std::uint64_t seed, int ops, std::uint32_t cancelWeight)
{
    Rng rng(seed);
    EventQueue real;
    ReferenceQueue ref;

    std::vector<int> real_order, ref_order;
    // tag -> real queue handle, for cancels of live events.
    std::unordered_map<int, EventId> handles;
    std::vector<int> live_tags;
    int next_tag = 0;
    // Seqs reserved on both sides and not filed yet, each with the
    // earliest tick it may be filed at.
    std::vector<std::pair<std::uint64_t, Tick>> reserved;

    const auto pickWhen = [&] {
        // Mix of horizons; weight same-tick bursts heavily so FIFO
        // ordering inside a tick is exercised.
        const std::uint64_t kind = rng.below(4);
        Tick when = real.now();
        if (kind == 1)
            when += 1 + rng.below(16);
        else if (kind >= 2)
            when += rng.below(2000);
        return when;
    };
    const auto track = [&](int tag, EventId id) {
        handles[tag] = id;
        live_tags.push_back(tag);
    };
    const auto record = [&real_order](int tag) {
        return [tag, &real_order] { real_order.push_back(tag); };
    };

    const auto scheduleOne = [&] {
        const Tick when = pickWhen();
        const int tag = next_tag++;
        const std::uint64_t kind = rng.below(10);
        if (kind < 7) {
            track(tag, real.schedule(when, record(tag)));
            ref.schedule(when, tag);
        } else if (kind < 9) {
            // A reservation, filed by a later op at or after the
            // tick it was made for, as a channel FIFO's next head is.
            const std::uint64_t seq = real.reserveSeq();
            ASSERT_EQ(seq, ref.reserveSeq());
            reserved.emplace_back(seq, when);
        } else {
            const std::uint64_t key = mix64(static_cast<std::uint64_t>(
                                          tag)) >> 1;
            track(tag, real.scheduleKeyed(when, key, record(tag)));
            ref.scheduleKeyed(when, key, tag);
        }
    };

    const auto fileReserved = [&] {
        // Oldest or newest reservation, at its own tick or later.
        const std::size_t k = rng.below(2) ? 0 : reserved.size() - 1;
        const auto [seq, made_for] = reserved[k];
        reserved.erase(reserved.begin() + static_cast<long>(k));
        const Tick when = std::max(made_for, real.now())
            + (rng.below(2) ? 0 : rng.below(50));
        const int tag = next_tag++;
        track(tag, real.scheduleReserved(when, seq, record(tag)));
        ref.scheduleReserved(when, seq, tag);
    };

    for (int i = 0; i < ops; ++i) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 45) {
            if (!reserved.empty() && rng.below(3) == 0)
                fileReserved();
            else
                scheduleOne();
        } else if (roll < 45 + cancelWeight && !live_tags.empty()) {
            // Cancel a random live event — and sometimes a stale
            // handle, which both sides must reject.
            const std::size_t k = rng.below(live_tags.size());
            const int tag = live_tags[k];
            const bool stale = rng.below(8) == 0;
            const int victim = stale ? tag + 100000 : tag;
            const EventId h = stale
                                  ? handles[tag] + (1ull << 33)
                                  : handles[tag];
            ASSERT_EQ(real.cancel(h), ref.cancel(victim));
            if (!stale) {
                live_tags[k] = live_tags.back();
                live_tags.pop_back();
            }
        } else if (roll < 90) {
            ASSERT_EQ(real.runOne(), ref.runOne(ref_order));
        } else {
            const Tick limit = real.now() + rng.below(500);
            ASSERT_EQ(real.runUntil(limit),
                      ref.runUntil(limit, ref_order));
        }
        ASSERT_EQ(real.now(), ref.now()) << "op " << i;
        ASSERT_EQ(real.size(), ref.size()) << "op " << i;
        ASSERT_EQ(real_order, ref_order) << "op " << i;
        // Executed tags are no longer live on either side.
        while (!real_order.empty()) {
            const int done = real_order.back();
            for (std::size_t k = 0; k < live_tags.size(); ++k) {
                if (live_tags[k] == done) {
                    live_tags[k] = live_tags.back();
                    live_tags.pop_back();
                    break;
                }
            }
            handles.erase(done);
            real_order.pop_back();
            ref_order.pop_back();
        }
    }

    // File what is still reserved, drain both completely and compare
    // the tail.
    while (!reserved.empty())
        fileReserved();
    real.runUntil();
    ref.runUntil(maxTick, ref_order);
    ASSERT_EQ(real_order, ref_order);
    ASSERT_EQ(real.now(), ref.now());
    ASSERT_EQ(real.size(), 0u);
    ASSERT_EQ(ref.size(), 0u);
    ASSERT_EQ(real.stats().scheduled,
              static_cast<std::uint64_t>(real.stats().executed
                                         + real.stats().cancelled));
}

TEST(EventQueueStress, MatchesReferenceModelLightCancel)
{
    for (std::uint64_t seed : {11ull, 12ull, 13ull})
        stressRun(seed, 6000, 10);
}

TEST(EventQueueStress, MatchesReferenceModelHeavyCancel)
{
    // Heavy cancellation drives tombstones past the compaction
    // threshold repeatedly.
    for (std::uint64_t seed : {21ull, 22ull, 23ull})
        stressRun(seed, 6000, 35);
}

TEST(EventQueueStress, FollowUpSchedulingMatchesReference)
{
    // Executed events trigger deterministic follow-ups (including
    // same-tick ones) applied to both models in lockstep, so the
    // queues churn through thousands of slot recyclings.
    EventQueue real;
    ReferenceQueue ref;
    std::vector<int> real_order, ref_order;
    int next_tag = 0;

    const auto scheduleBoth = [&](Tick when, int tag) {
        real.schedule(when,
                      [tag, &real_order] { real_order.push_back(tag); });
        ref.schedule(when, tag);
    };

    for (int i = 0; i < 64; ++i)
        scheduleBoth(static_cast<Tick>((i * 13) % 41), next_tag++);

    int executed_total = 0;
    for (;;) {
        const bool a = real.runOne();
        ASSERT_EQ(a, ref.runOne(ref_order));
        if (!a)
            break;
        ASSERT_EQ(real_order, ref_order);
        ASSERT_EQ(real.now(), ref.now());
        const int tag = real_order.back();
        if (++executed_total < 4000 && tag % 3 != 0) {
            scheduleBoth(real.now() + 1
                             + static_cast<Tick>((tag * 7) % 23),
                         next_tag++);
            if (tag % 5 == 0)
                scheduleBoth(real.now(), next_tag++);
        }
    }
    ASSERT_EQ(real_order, ref_order);
    ASSERT_EQ(real.size(), 0u);
}

/**
 * Deep randomized run: both queues are prefilled with 50 000+ events
 * over 10^7 ticks, then random operations are applied to both while
 * every executed event schedules one follow-up, as a simulation's
 * events do, so time sweeps through many rungs at full depth. After
 * every operation, order, now(), size() and peekNextTick() must agree.
 *
 * Schedules land at the current tick, a little ahead (the loaded
 * bucket), anywhere in the next 10^7 ticks (the rung) or past that
 * (the top). Cancels hit the earliest live event (the heap), the
 * latest (the top or the last bucket) or a random one. In the second
 * half, executed events schedule nothing and cancels come in bursts,
 * so tombstones come to outnumber the live events and compaction
 * sweeps every tier. runUntil() limits fall in buckets not loaded
 * yet.
 */
class DeepRun
{
  public:
    static constexpr Tick span = 10'000'000;

    DeepRun(std::uint64_t seed, std::uint32_t keyed_percent)
        : rng_(seed), keyedPercent_(keyed_percent)
    {}

    void
    run(int prefill, int ops)
    {
        for (int i = 0; i < prefill; ++i)
            scheduleAt(rng_.below(span));
        check(-1);
        for (int i = 0; i < ops && !testing::Test::HasFatalFailure();
             ++i) {
            // Second half: the queue drains and cancels come in
            // bursts, so tombstones come to outnumber live events.
            draining_ = i >= ops / 2;
            step();
            check(i);
        }
        if (testing::Test::HasFatalFailure())
            return;
        // Drain both completely and compare the tail.
        const std::uint64_t ran = real_.runUntil();
        ASSERT_EQ(ran, ref_.runUntil(maxTick, refOrder_));
        check(ops);
        ASSERT_EQ(real_.size(), 0u);
        ASSERT_EQ(real_.peekNextTick(), maxTick);
    }

    const EventQueueStats &stats() const { return real_.stats(); }

  private:
    void
    executed(int tag)
    {
        realOrder_.push_back(tag);
        // Never at the current tick: the reference already holds the
        // running event, and would put a same-tick follow-up with a
        // smaller key (or a plain one after a keyed event) before it.
        if (!draining_)
            scheduleAt(real_.now() + 1 + horizon());
    }

    Tick
    horizon()
    {
        const std::uint64_t roll = rng_.below(100);
        if (roll < 20)
            return 0;
        if (roll < 50)
            return 1 + rng_.below(2000);
        if (roll < 90)
            return rng_.below(span);
        return span + rng_.below(span);
    }

    void
    scheduleAt(Tick when)
    {
        const int tag = nextTag_++;
        const auto cb = [this, tag] { executed(tag); };
        if (rng_.below(100) < keyedPercent_) {
            // mix64 is a bijection, so distinct tags get distinct keys.
            const std::uint64_t key =
                mix64(static_cast<std::uint64_t>(tag)) >> 1;
            handles_[tag] = real_.scheduleKeyed(when, key, cb);
            ref_.scheduleKeyed(when, key, tag);
        } else {
            handles_[tag] = real_.schedule(when, cb);
            ref_.schedule(when, tag);
        }
    }

    void
    cancelOne()
    {
        const std::uint64_t which = rng_.below(3);
        const int tag =
            which == 0   ? ref_.earliestLive()
            : which == 1 ? ref_.latestLive()
                         : static_cast<int>(rng_.below(
                               static_cast<std::uint64_t>(nextTag_)));
        const auto it = handles_.find(tag);
        if (it == handles_.end())
            return;
        ASSERT_TRUE(real_.cancel(it->second));
        ASSERT_TRUE(ref_.cancel(tag));
        // A replayed handle is stale on both sides.
        ASSERT_FALSE(real_.cancel(it->second));
        handles_.erase(it);
    }

    void
    step()
    {
        const std::uint64_t roll = rng_.below(100);
        if (roll < 30) {
            scheduleAt(real_.now() + horizon());
        } else if (roll < 50) {
            const std::uint64_t n = draining_ ? 1 + rng_.below(64) : 1;
            for (std::uint64_t k = 0; k < n; ++k)
                cancelOne();
        } else if (roll < 95) {
            // The real queue runs first: its callbacks schedule the
            // follow-ups into the reference too.
            const bool ran = real_.runOne();
            ASSERT_EQ(ran, ref_.runOne(refOrder_));
        } else {
            const Tick limit = real_.now() + rng_.below(span / 100);
            const std::uint64_t ran = real_.runUntil(limit);
            ASSERT_EQ(ran, ref_.runUntil(limit, refOrder_));
            ASSERT_LE(real_.now(), limit);
        }
    }

    void
    check(int op)
    {
        ASSERT_EQ(real_.now(), ref_.now()) << "op " << op;
        ASSERT_EQ(real_.size(), ref_.size()) << "op " << op;
        ASSERT_EQ(realOrder_, refOrder_) << "op " << op;
        ASSERT_EQ(real_.peekNextTick(), ref_.peekNextTick()) << "op " << op;
        // A tier whose tombstones a sweep skipped would leave the
        // queue's tombstone count off, and it would compact at other
        // times than the reference.
        ASSERT_EQ(real_.stats().compactions, ref_.compactions())
            << "op " << op;
        for (const int done : realOrder_)
            handles_.erase(done);
        realOrder_.clear();
        refOrder_.clear();
    }

    Rng rng_;
    std::uint32_t keyedPercent_;
    bool draining_ = false;
    EventQueue real_;
    ReferenceQueue ref_;
    std::vector<int> realOrder_, refOrder_;
    std::unordered_map<int, EventId> handles_; // live tags only
    int nextTag_ = 0;
};

void
deepRun(std::uint64_t seed, std::uint32_t keyed_percent)
{
    DeepRun run(seed, keyed_percent);
    run.run(50'000, 20'000);
    const EventQueueStats &s = run.stats();
    EXPECT_GT(s.rungBuilds, 1u);
    EXPECT_GT(s.compactions, 0u);
}

TEST(EventQueueStress, DeepQueueCrossesTiersLikeReference)
{
    deepRun(31, 0);
}

TEST(EventQueueStress, DeepKeyedQueueMatchesReference)
{
    deepRun(41, 30);
}

} // namespace
