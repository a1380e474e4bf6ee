#include "sim/telemetry/pdes_trace.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/pdes_scheduler.hh"

namespace macrosim
{

namespace
{

/** Perfetto process the LP thread rows live under. */
constexpr std::uint32_t tracePid = 90;
/** Per-LP TraceSink ring capacity. */
constexpr std::size_t shardCapacity = 1 << 16;
/** A cross-LP post becomes a flow arrow when (key & mask) == 0: a
 *  deterministic 1-in-64 sample, so heavy runs do not flood the
 *  rings. */
constexpr std::uint64_t flowSampleMask = 63;

} // namespace

PdesTracer::PdesTracer(PdesScheduler &sched)
    : sched_(sched), window_(std::max<Tick>(sched.lookahead(), 1))
{
    const std::uint32_t n = sched_.lpCount();
    for (std::uint32_t i = 0; i < n; ++i)
        shards_.emplace_back(this, i, shardCapacity);
    for (std::uint32_t i = 0; i < n; ++i) {
        sched_.simOf(i).events().setTickObserver(&PdesTracer::tickThunk,
                                                 &shards_[i]);
    }
    sched_.setTracer(this);
    attached_ = true;
}

PdesTracer::~PdesTracer()
{
    detach();
}

void
PdesTracer::detach()
{
    if (!attached_)
        return;
    const std::uint32_t n = sched_.lpCount();
    for (std::uint32_t i = 0; i < n; ++i)
        sched_.simOf(i).events().setTickObserver(nullptr, nullptr);
    sched_.setTracer(nullptr);
    attached_ = false;
}

void
PdesTracer::tickThunk(void *ctx, Tick tick, std::uint64_t events)
{
    Shard &shard = *static_cast<Shard *>(ctx);
    shard.self->onTick(shard, tick, events);
}

void
PdesTracer::onTick(Shard &shard, Tick tick, std::uint64_t events)
{
    const std::uint64_t w = tick / window_;
    if (shard.open && w == shard.winIndex) {
        shard.events += events;
        shard.lastTick = tick;
        return;
    }
    if (shard.open)
        closeWindow(shard);
    shard.open = true;
    shard.winIndex = w;
    shard.firstTick = tick;
    shard.lastTick = tick;
    shard.events = events;
}

void
PdesTracer::closeWindow(Shard &shard)
{
    const Tick start = static_cast<Tick>(shard.winIndex) * window_;
    // The event-driven EOT envelope: after executing this window, no
    // message below last tick + lookahead can ever leave this LP.
    const Tick eot = shard.lastTick + window_;
    shard.sink.span(
        "horizon", "pdes", tracePid, shard.lp, start, window_,
        {{"events", std::to_string(shard.events)},
         {"first_tick", std::to_string(shard.firstTick)},
         {"last_tick", std::to_string(shard.lastTick)},
         {"eot", std::to_string(eot)}});
    shard.eotPoints.emplace_back(start + window_, eot);
    shard.open = false;
}

void
PdesTracer::recordPost(std::uint32_t src_lp, std::uint32_t dst_lp,
                       Tick send_tick, const PdesEvent &ev)
{
    if ((ev.key & flowSampleMask) != 0)
        return;
    // Both arrow ends come from the sender: (send tick, delivery
    // tick, key) are simulated quantities, so the arrow is identical
    // no matter when the receiver actually drains the channel.
    Shard &shard = shards_[src_lp];
    shard.sink.flowStart("msg", tracePid, src_lp, send_tick, ev.key);
    shard.sink.flowFinish("msg", tracePid, dst_lp, ev.when, ev.key);
}

std::uint64_t
PdesTracer::droppedEvents() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.sink.dropped();
    return total;
}

void
PdesTracer::finish(TraceSink &out)
{
    if (finished_)
        return;
    finished_ = true;
    const std::uint32_t n = sched_.lpCount();
    // Complete the deterministic streams: the last executed tick of
    // each LP is still buffered in its queue's burst tracker.
    for (std::uint32_t i = 0; i < n; ++i)
        sched_.simOf(i).events().flushTickObserver();
    for (Shard &shard : shards_) {
        if (shard.open)
            closeWindow(shard);
    }
    detach();

    // Metadata first, then the shards in fixed LP order, then the
    // derived counter tracks — a fully deterministic serialization.
    out.processName(tracePid, "pdes horizon");
    const std::vector<std::uint32_t> &siteLp = sched_.sitePartition();
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string label = "lp" + std::to_string(i);
        std::uint32_t first = 0;
        std::uint32_t last = 0;
        bool any = false;
        for (std::uint32_t site = 0;
             site < static_cast<std::uint32_t>(siteLp.size());
             ++site) {
            if (siteLp[site] != i)
                continue;
            if (!any)
                first = site;
            last = site;
            any = true;
        }
        if (any) {
            label += " sites " + std::to_string(first) + ".."
                + std::to_string(last);
        }
        out.threadName(tracePid, i, label);
    }
    for (Shard &shard : shards_)
        out.append(std::move(shard.sink));
    for (const Shard &shard : shards_) {
        const std::string track = "eot.lp" + std::to_string(shard.lp);
        for (const auto &[ts, eot] : shard.eotPoints) {
            out.counter(track, tracePid, ts,
                        static_cast<double>(eot));
        }
    }

    // EIT floor: the minimum over all LPs' EOT envelopes — the
    // horizon every LP's EIT ratchets along. Only meaningful with
    // more than one LP (a lone LP's EIT is unbounded).
    if (n > 1) {
        std::vector<std::size_t> idx(n, 0);
        std::vector<Tick> cur(n, 0);
        Tick lastFloor = maxTick;
        for (;;) {
            // Next point in (ts, lp) order across all envelopes.
            std::uint32_t pick = n;
            Tick pickTs = maxTick;
            for (std::uint32_t i = 0; i < n; ++i) {
                const auto &pts = shards_[i].eotPoints;
                if (idx[i] < pts.size()
                    && pts[idx[i]].first < pickTs) {
                    pickTs = pts[idx[i]].first;
                    pick = i;
                }
            }
            if (pick == n)
                break;
            cur[pick] = shards_[pick].eotPoints[idx[pick]].second;
            ++idx[pick];
            const Tick floor = *std::min_element(cur.begin(),
                                                 cur.end());
            if (floor != lastFloor) {
                out.counter("eit.floor", tracePid, pickTs,
                            static_cast<double>(floor));
                lastFloor = floor;
            }
        }
    }
}

} // namespace macrosim
