#include "workloads/packet_injector.hh"

#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "sim/logging.hh"

namespace macrosim
{

namespace
{

struct InjectorState
{
    InjectorState(Simulator &sim_in, Network &net_in,
                  const InjectorConfig &cfg_in)
        : sim(sim_in), net(net_in), cfg(cfg_in), rng(cfg_in.seed),
          dests(cfg_in.pattern, net_in.geometry())
    {}

    Simulator &sim;
    Network &net;
    InjectorConfig cfg;
    Rng rng;
    DestinationGenerator dests;

    Tick stopAt = 0;
    /** First tick of the measurement window (absolute, not an offset
     *  from zero: the injector may start on a warm clock). */
    Tick windowStart = 0;
    Accumulator latencyNs;
    Histogram latencyHist{0.0, 4000.0, 80000}; // 50 ps buckets
    std::uint64_t measuredPackets = 0;
    std::uint64_t windowBytes = 0;
    std::uint64_t injectedInWindow = 0;

    double
    meanGapPs() const
    {
        const double rate_bytes_per_ns =
            cfg.load * net.config().siteBandwidthBytesPerNs();
        return static_cast<double>(cfg.packetBytes)
            / rate_bytes_per_ns * 1000.0;
    }

    void
    scheduleNext(SiteId src)
    {
        // Per-gap rounding to >= 1 whole tick biases the realized
        // rate upward by at most 0.5 tick + P(gap < 1) per arrival
        // (see InjectorResult::offeredMeasuredPct for the realized
        // figure); the PDES injector's drift-free arrival clock
        // avoids the bias, while this path keeps the historical
        // stream so figure-6 outputs stay byte-identical.
        const Tick gap = static_cast<Tick>(
            rng.exponential(meanGapPs()) + 0.5);
        const Tick when = sim.now() + std::max<Tick>(gap, 1);
        if (when >= stopAt)
            return;
        sim.events().schedule(when, [this, src] {
            Message m;
            m.src = src;
            m.dst = dests.next(src, rng);
            m.bytes = cfg.packetBytes;
            // Mark packets created inside the measurement window.
            // The window starts warmup ticks after the *injector*
            // started, not at absolute tick `warmup`: a caller that
            // ran the simulator before invoking the injector would
            // otherwise measure mid-warmup packets.
            m.cookie = (sim.now() >= windowStart) ? 1 : 0;
            if (m.cookie == 1)
                ++injectedInWindow;
            net.inject(m);
            scheduleNext(src);
        }, "workload.inject");
    }
};

} // namespace

bool
InjectorResult::identicalTo(const InjectorResult &o) const
{
    const auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    return same(offeredLoadPct, o.offeredLoadPct)
        && same(meanLatencyNs, o.meanLatencyNs)
        && same(maxLatencyNs, o.maxLatencyNs)
        && same(p50LatencyNs, o.p50LatencyNs)
        && same(p99LatencyNs, o.p99LatencyNs)
        && same(deliveredBytesPerNsPerSite, o.deliveredBytesPerNsPerSite)
        && same(deliveredPct, o.deliveredPct)
        && measuredPackets == o.measuredPackets
        && overflowPackets == o.overflowPackets
        && same(offeredMeasuredPct, o.offeredMeasuredPct);
}

InjectorResult
runOpenLoop(Simulator &sim, Network &net, const InjectorConfig &cfg)
{
    if (cfg.load <= 0.0 || cfg.load > 1.5)
        fatal("runOpenLoop: offered load ", cfg.load,
              " outside (0, 1.5]");

    InjectorState st(sim, net, cfg);
    st.stopAt = sim.now() + cfg.warmup + cfg.window;
    st.windowStart = sim.now() + cfg.warmup;

    net.setDefaultHandler([&st](const Message &m) {
        if (m.cookie == 1) {
            const double lat_ns = ticksToNs(m.latency());
            st.latencyNs.sample(lat_ns);
            st.latencyHist.sample(lat_ns);
            ++st.measuredPackets;
        }
        if (m.delivered >= st.windowStart && m.delivered < st.stopAt)
            st.windowBytes += m.bytes;
    });

    for (SiteId s = 0; s < net.config().siteCount(); ++s)
        st.scheduleNext(s);

    sim.run(); // injection self-terminates at stopAt; then drain

    InjectorResult res;
    res.offeredLoadPct = cfg.load * 100.0;
    res.meanLatencyNs = st.latencyNs.mean();
    res.maxLatencyNs = st.latencyNs.max();
    res.p50LatencyNs = st.latencyHist.quantile(0.5);
    res.p99LatencyNs = st.latencyHist.quantile(0.99);
    res.measuredPackets = st.measuredPackets;
    res.overflowPackets = st.latencyHist.overflow();
    if (res.overflowPackets > 0) {
        warn_once("packet injector: ", res.overflowPackets,
                  " measured packet(s) exceeded the 4 us latency "
                  "histogram cap; percentiles landing in overflow "
                  "report +inf (mean/max remain exact)");
    }
    const double window_ns = ticksToNs(cfg.window);
    res.deliveredBytesPerNsPerSite = static_cast<double>(st.windowBytes)
        / window_ns / net.config().siteCount();
    res.deliveredPct = res.deliveredBytesPerNsPerSite
        / net.config().siteBandwidthBytesPerNs() * 100.0;
    res.offeredMeasuredPct =
        static_cast<double>(st.injectedInWindow)
        * cfg.packetBytes / window_ns / net.config().siteCount()
        / net.config().siteBandwidthBytesPerNs() * 100.0;
    return res;
}

namespace
{

/**
 * Per-site injector state. Sources and destinations are decoupled:
 * the RNG and arrival clock belong to the site as a *source* (touched
 * only by its owner LP's injection events), the measurement fields to
 * the site as a *destination* (touched only by its owner LP's
 * delivery events) — so no field is ever written from two LPs, and
 * merging in global site order gives a partition-independent result.
 * Each state fills whole cache lines, so the sites at a block
 * partition's boundary do not share one between two LPs.
 */
struct alignas(64) PdesSiteState
{
    Rng rng{0};
    /** Drift-free arrival clock: the exact (real-valued) ps of the
     *  next arrival; each gap accumulates before rounding, so
     *  quantization error never compounds across arrivals. */
    double clockPs = 0.0;
    std::uint64_t injectedInWindow = 0;

    Accumulator latencyNs;
    std::uint64_t measuredPackets = 0;
    std::uint64_t windowBytes = 0;
};

/**
 * Per-LP state: each replica needs its own destination cursors and an
 * (integer-binned, order-free) latency histogram. A shard fills
 * whole cache lines, so one LP's samples never invalidate a line the
 * next LP reads.
 */
struct alignas(64) PdesLpShard
{
    PdesLpShard(TrafficPattern pattern, const MacrochipGeometry &geom)
        : dests(pattern, geom)
    {}

    DestinationGenerator dests;
    Histogram hist{0.0, 4000.0, 80000}; // 50 ps buckets
};

struct PdesInjectorState
{
    PdesModel model;
    InjectorConfig cfg;
    Tick windowStart = 0;
    Tick stopAt = 0;
    double meanGapPs = 0.0;
    std::vector<PdesSiteState> sites;
    std::vector<PdesLpShard> lps;

    void
    scheduleNext(std::uint32_t lp, SiteId src)
    {
        PdesSiteState &ss = sites[src];
        ss.clockPs += ss.rng.exponential(meanGapPs);
        const Tick when = static_cast<Tick>(ss.clockPs + 0.5);
        if (when >= stopAt)
            return;
        model.sched->simOf(lp).events().schedule(
            when, [this, lp, src] {
                PdesSiteState &s = sites[src];
                Message m;
                m.src = src;
                m.dst = lps[lp].dests.next(src, s.rng);
                m.bytes = cfg.packetBytes;
                m.cookie =
                    (model.net(lp).sim().now() >= windowStart) ? 1 : 0;
                if (m.cookie == 1)
                    ++s.injectedInWindow;
                model.net(lp).inject(m);
                scheduleNext(lp, src);
            }, "workload.inject");
    }
};

} // namespace

PdesInjectorResult
runOpenLoopPdes(const PdesNetworkFactory &make_net,
                const InjectorConfig &cfg, std::uint32_t lps,
                std::size_t threads, const PdesObservability *obs)
{
    if (cfg.load <= 0.0 || cfg.load > 1.5)
        fatal("runOpenLoopPdes: offered load ", cfg.load,
              " outside (0, 1.5]");

    PdesInjectorState st;
    st.model = buildPdesModel(make_net, lps, threads, cfg.seed,
                              cfg.packetBytes);
    st.cfg = cfg;
    st.windowStart = cfg.warmup;
    st.stopAt = cfg.warmup + cfg.window;

    const MacrochipConfig &mc = st.model.net(0).config();
    const std::uint32_t site_count = mc.siteCount();
    st.meanGapPs = static_cast<double>(cfg.packetBytes)
        / (cfg.load * mc.siteBandwidthBytesPerNs()) * 1000.0;

    st.sites.resize(site_count);
    for (SiteId s = 0; s < site_count; ++s) {
        st.sites[s].rng = Rng(
            deriveSeed(cfg.seed, "pdes-injector", std::to_string(s)));
    }
    const std::uint32_t n_lps = st.model.effectiveLps;
    st.lps.reserve(n_lps);
    for (std::uint32_t i = 0; i < n_lps; ++i) {
        st.lps.emplace_back(cfg.pattern, st.model.net(i).geometry());
        st.model.net(i).setDefaultHandler(
            [&st, i](const Message &m) {
                PdesSiteState &ss = st.sites[m.dst];
                if (m.cookie == 1) {
                    const double lat_ns = ticksToNs(m.latency());
                    ss.latencyNs.sample(lat_ns);
                    st.lps[i].hist.sample(lat_ns);
                    ++ss.measuredPackets;
                }
                if (m.delivered >= st.windowStart
                    && m.delivered < st.stopAt) {
                    ss.windowBytes += m.bytes;
                }
            });
    }
    for (SiteId s = 0; s < site_count; ++s)
        st.scheduleNext(st.model.sched->lpOfSite(s), s);

    std::unique_ptr<PdesTracer> tracer =
        armPdesObservability(st.model, obs);
    PdesInjectorResult out;
    out.eventsExecuted = st.model.sched->run();
    finishPdesObservability(st.model, obs, std::move(tracer));
    out.effectiveLps = n_lps;
    out.crossPosts = st.model.sched->crossPosts();
    out.load = st.model.sched->loadReport();

    // Fold per-site/per-LP shards in a fixed global order, so the
    // floating-point results do not depend on the partition.
    Accumulator latency;
    Histogram hist(0.0, 4000.0, 80000);
    std::uint64_t measured = 0, window_bytes = 0, injected = 0;
    for (SiteId s = 0; s < site_count; ++s) {
        latency.merge(st.sites[s].latencyNs);
        measured += st.sites[s].measuredPackets;
        window_bytes += st.sites[s].windowBytes;
        injected += st.sites[s].injectedInWindow;
    }
    for (const PdesLpShard &shard : st.lps)
        hist.merge(shard.hist);

    InjectorResult &res = out.result;
    res.offeredLoadPct = cfg.load * 100.0;
    res.meanLatencyNs = latency.mean();
    res.maxLatencyNs = latency.max();
    res.p50LatencyNs = hist.quantile(0.5);
    res.p99LatencyNs = hist.quantile(0.99);
    res.measuredPackets = measured;
    res.overflowPackets = hist.overflow();
    if (res.overflowPackets > 0) {
        warn_once("packet injector (pdes): ", res.overflowPackets,
                  " measured packet(s) exceeded the 4 us latency "
                  "histogram cap; percentiles landing in overflow "
                  "report +inf (mean/max remain exact)");
    }
    const double window_ns = ticksToNs(cfg.window);
    res.deliveredBytesPerNsPerSite =
        static_cast<double>(window_bytes) / window_ns / site_count;
    res.deliveredPct = res.deliveredBytesPerNsPerSite
        / mc.siteBandwidthBytesPerNs() * 100.0;
    res.offeredMeasuredPct = static_cast<double>(injected)
        * cfg.packetBytes / window_ns / site_count
        / mc.siteBandwidthBytesPerNs() * 100.0;
    return out;
}

} // namespace macrosim
