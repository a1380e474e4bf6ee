#include "sim/lp.hh"

#include <algorithm>
#include <chrono>

#include "sim/logging.hh"
#include "sim/pdes_scheduler.hh"

namespace macrosim
{

LogicalProcess::LogicalProcess(PdesScheduler &sched, std::uint32_t id,
                               std::uint64_t seed)
    : sched_(sched), id_(id), sim_(seed)
{
}

std::uint64_t
LogicalProcess::drainInboxes()
{
    std::uint64_t drained = 0;
    const std::uint32_t n = sched_.lpCount();
    EventQueue &q = sim_.events();
    for (std::uint32_t j = 0; j < n; ++j) {
        if (j == id_)
            continue;
        // Scheduling is not execution: the event enters the local
        // queue unconditionally (so inboxes are always drained dry
        // and a sender can never be wedged on a full ring), but it
        // only *runs* once the horizon passes its tick.
        drained += sched_.channel(j, id_).drain([&q](const PdesEvent &ev) {
            schedulePdesEvent(q, ev, "pdes.cross");
        });
    }
    return drained;
}

void
LogicalProcess::publishState(bool idle, bool worked)
{
    if (!worked && idle == lastIdle_)
        return;
    lastIdle_ = idle;
    ++stepVersion_;
    state_.store((stepVersion_ << 1) | (idle ? 1u : 0u),
                 std::memory_order_seq_cst);
}

bool
LogicalProcess::step(Tick limit)
{
    using WallClock = std::chrono::steady_clock;
    const bool timing = sched_.metricsTiming();
    WallClock::time_point t0{};
    if (timing)
        t0 = WallClock::now();
    ++metrics_.rounds;

    // 1. Horizon: the earliest timestamp any other LP could still
    // send. Reading the EOTs *before* draining is load-bearing: a
    // message that is not in an inbox by the time we drain below was
    // sent after these reads, under an EOT at least this large.
    Tick eit = maxTick;
    const std::uint32_t n = sched_.lpCount();
    for (std::uint32_t j = 0; j < n; ++j) {
        if (j != id_)
            eit = std::min(eit, sched_.eotOf(j));
    }
    // Lookahead utilization numerator: how much horizon the other
    // LPs granted us this round. The endgame value maxTick (all
    // peers done) is excluded — it is "unbounded", not granted ticks.
    if (eit != maxTick && eit > lastEit_) {
        metrics_.grantedTicks += eit - lastEit_;
        lastEit_ = eit;
    }

    // 2. Fold every inbound message into the local queue.
    const std::uint64_t drained = drainInboxes();
    metrics_.drained += drained;
    WallClock::time_point t1{};
    if (timing)
        t1 = WallClock::now();

    // 3. Execute strictly below the horizon (and never past limit),
    // and stop one lookahead past the first pending tick: the EOT
    // then advances while work remains, so no LP runs far ahead while
    // the others wait for it to publish (which would leave the LPs
    // running in turns, not side by side).
    const Tick look = sched_.lookahead();
    std::uint64_t ran = 0;
    const Tick nowBefore = sim_.now();
    if (eit > 0) {
        Tick until = std::min(eit - 1, limit);
        const Tick first = sim_.events().peekNextTick();
        if (first <= maxTick - look)
            until = std::min(until, first + look);
        ran = sim_.events().runUntil(until);
    }
    executed_ += ran;
    if (ran > 0) {
        metrics_.consumedTicks += sim_.now() - nowBefore;
        if (ran > metrics_.maxRoundExecuted)
            metrics_.maxRoundExecuted = ran;
    }

    // 4. Publish this step's posts, then the new output horizon: a
    // peer that reads the new EOT also sees every message this LP
    // posted before it. Every future local event is at or after
    // min(next, eit), so EOT = min(next, eit) + lookahead bounds
    // every future post (the prevEot check guards the stale-eit case
    // where another LP's EOT was read early).
    sched_.publishPosts(id_);
    const Tick next = sim_.events().peekNextTick();
    const Tick base = std::min(next, eit);
    const Tick eot = base > maxTick - look ? maxTick : base + look;
    const Tick prevEot = eot_.load(std::memory_order_relaxed);
    if (eot > prevEot) {
        // Advance histogram: an advance is event-driven when a
        // pending local event (not the granted horizon) sets the
        // base, i.e. real model progress; otherwise the EOT merely
        // ratcheted along behind the other LPs' horizons.
        if (next < eit)
            ++metrics_.eotEventAdvances;
        else
            ++metrics_.eotRatchetAdvances;
        if (eot != maxTick)
            metrics_.eotAdvanceTicks += eot - prevEot;
        eot_.store(eot, std::memory_order_seq_cst);
    }

    // 5. Publish idle state, then release the drained messages'
    // in-flight counts. The order matters for termination: a checker
    // that sees in-flight == 0 is guaranteed to also see this step's
    // version bump (and re-check the idle bit we just computed).
    // Idle = nothing pending at or below the limit. An empty queue
    // reports next == maxTick, which must count as idle even when the
    // limit itself is maxTick (the default run-to-completion case).
    publishState(/*idle=*/next > limit || next == maxTick,
                 /*worked=*/drained > 0 || ran > 0);
    if (drained > 0
        && sched_.inFlight_.fetch_sub(drained, std::memory_order_seq_cst)
               < drained) {
        panic("LogicalProcess::step: LP ", id_, " drained ", drained,
              " messages that were never counted in flight");
    }

    const bool progress = drained > 0 || ran > 0;
    if (progress)
        ++metrics_.progressRounds;
    else
        ++metrics_.blockedRounds;
    if (timing) {
        const WallClock::time_point t2 = WallClock::now();
        const auto ns = [](WallClock::duration d) {
            return std::chrono::duration<double, std::nano>(d).count();
        };
        // A round that made no progress is a blocked-on-EIT spin; its
        // whole cost is blocked time. Progress rounds split at the
        // end of the inbox drain (EIT reads + drain vs execute +
        // publish).
        if (progress) {
            metrics_.drainWallNs += ns(t1 - t0);
            metrics_.execWallNs += ns(t2 - t1);
        } else {
            metrics_.blockedWallNs += ns(t2 - t0);
        }
    }
    return progress;
}

} // namespace macrosim
