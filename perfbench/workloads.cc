/**
 * @file
 * The three benchmark workloads and the code that runs one cell.
 *
 * Why each workload is here (README.md has the layer table):
 *  - openloop-8x8: the network arbiters and the open-loop injector do
 *    nearly all the work, at loads from light to far past every
 *    network's saturation, so queues that grow without bound show.
 *  - coherence-8x8: the coherence engine, the L2s and directory, and
 *    MSHR back-pressure do the work, with the network carrying
 *    closed-loop mixed control/data traffic mostly below saturation.
 *  - pdes-16x16: the only workload on the PDES scheduler, keyed
 *    cross-LP events and the SPSC channels, at 1, 2 and 4 LPs.
 */

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "fault/fault.hh"
#include "fault/injector.hh"
#include "perfbench.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace perfbench
{

namespace
{

using namespace macrosim;
using Clock = std::chrono::steady_clock;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/* ---- workload definitions ---- */

/** One traffic configuration of openloop-8x8. */
struct OpenLoopTraffic
{
    const char *name;
    TrafficPattern pattern;
    double load;
    bool faults;
};

constexpr OpenLoopTraffic openLoopTraffic[] = {
    {"uniform-2", TrafficPattern::Uniform, 0.02, false},
    {"uniform-10", TrafficPattern::Uniform, 0.10, false},
    {"uniform-50", TrafficPattern::Uniform, 0.50, false},
    {"neighbor-5", TrafficPattern::Neighbor, 0.05, false},
    {"neighbor-10", TrafficPattern::Neighbor, 0.10, false},
    {"uniform-10-faults", TrafficPattern::Uniform, 0.10, true},
};

/** The paper's five networks plus hermes (figure 6 and resilience). */
constexpr NetSel openLoopNetworks[] = {
    NetSel::TokenRing, NetSel::CircuitSwitched, NetSel::PointToPoint,
    NetSel::LimitedPtToPt, NetSel::TwoPhase, NetSel::Hermes,
};

/** The figure 7-10 columns: the paper's five plus 2-phase ALT. */
constexpr NetSel coherenceNetworks[] = {
    NetSel::TokenRing, NetSel::CircuitSwitched, NetSel::PointToPoint,
    NetSel::LimitedPtToPt, NetSel::TwoPhase, NetSel::TwoPhaseAlt,
};

/** bench_resilience's fault model: 32 random events, bounded retry. */
constexpr std::uint32_t faultEventsPerCell = 32;

RetryPolicy
resilienceRetry()
{
    RetryPolicy retry;
    retry.backoffBase = 50 * tickNs;
    retry.maxAttempts = 4;
    return retry;
}

Workload
openLoopWorkload(std::uint64_t seed, bool reduced)
{
    Workload w;
    w.name = "openloop-8x8";
    for (const OpenLoopTraffic &t : openLoopTraffic) {
        for (const NetSel id : openLoopNetworks) {
            CellSpec c;
            c.kind = CellKind::OpenLoop;
            c.net = id;
            c.label = std::string(t.name) + "/" + service::netShortName(id);
            c.seed = deriveSeed(seed, std::string("openloop/") + t.name,
                                service::netShortName(id));
            c.faults = t.faults;
            c.traffic.pattern = t.pattern;
            c.traffic.load = t.load;
            // Figure 6's windows.
            c.traffic.warmup = (reduced ? 100 : 500) * tickNs;
            c.traffic.window = (reduced ? 400 : 2500) * tickNs;
            c.traffic.seed = c.seed;
            w.cells.push_back(std::move(c));
        }
    }
    return w;
}

Workload
coherenceWorkload(std::uint64_t seed, bool reduced)
{
    Workload w;
    w.name = "coherence-8x8";
    std::vector<WorkloadSpec> apps = applicationWorkloads();
    for (const WorkloadSpec &s : syntheticWorkloads())
        apps.push_back(s);
    for (WorkloadSpec &app : apps) {
        // Figure 7's default budget; caches start empty.
        app.instructionsPerCore = reduced ? 60 : 1200;
        for (const NetSel id : coherenceNetworks) {
            CellSpec c;
            c.kind = CellKind::Coherence;
            c.net = id;
            c.label = app.name + "/" + service::netShortName(id);
            // The figure benches' seed derivation: seed 1 runs
            // exactly the cells of figures 7-10.
            c.seed = deriveSeed(seed, app.name,
                                service::netDisplayName(id));
            c.app = app;
            w.cells.push_back(std::move(c));
        }
    }
    return w;
}

Workload
pdesWorkload(std::uint64_t seed, bool reduced)
{
    Workload w;
    w.name = "pdes-16x16";
    for (const std::uint32_t lps : {1u, 2u, 4u}) {
        CellSpec c;
        c.kind = CellKind::Pdes;
        c.net = NetSel::PointToPoint;
        c.lps = lps;
        c.label = "lp" + std::to_string(lps) + "/pt2pt";
        // Every LP count runs the same model: one seed for all.
        c.seed = deriveSeed(seed, "pdes-16x16", "pt2pt");
        // bench_pdes's model.
        c.traffic.pattern = TrafficPattern::Uniform;
        c.traffic.load = 0.10;
        c.traffic.warmup = (reduced ? 300 : 2000) * tickNs;
        c.traffic.window = (reduced ? 1500 : 10000) * tickNs;
        c.traffic.seed = c.seed;
        w.cells.push_back(std::move(c));
    }
    return w;
}

/* ---- spans ---- */

/** Process-wide origin of span timestamps. */
const Clock::time_point spanOrigin = Clock::now();

/** Host ns since spanOrigin as trace ticks (1 tick per ps, so the
 *  viewer shows host time at its true scale). */
Tick
spanTick(Clock::time_point t)
{
    return static_cast<Tick>(nsBetween(spanOrigin, t)) * tickNs;
}

/**
 * The spans of one cell: the cell span, setup children and a run
 * child, all on one track and tagged with the cell id. Inert when
 * the pass records no spans.
 */
class CellSpans
{
  public:
    CellSpans(TraceSink *sink, std::uint32_t cell)
        : sink_(sink), cell_(cell)
    {}

    void
    add(const std::string &name, Clock::time_point a,
        Clock::time_point b)
    {
        if (sink_ == nullptr)
            return;
        sink_->span(name, "perfbench", 1, 1, spanTick(a),
                    spanTick(b) - spanTick(a),
                    {{"cell", std::to_string(cell_)}});
    }

    void
    cell(const std::string &label, Clock::time_point a,
         Clock::time_point b)
    {
        if (sink_ == nullptr)
            return;
        sink_->span("cell " + label, "perfbench", 1, 1, spanTick(a),
                    spanTick(b) - spanTick(a),
                    {{"cell", std::to_string(cell_)},
                     {"label", "\"" + jsonEscape(label) + "\""}});
    }

  private:
    TraceSink *sink_;
    std::uint32_t cell_;
};

/* ---- counters read after a run ---- */

/**
 * Events retired through the coalesced batch path. Read through a
 * requires-expression so the benchmark still builds, reading zero,
 * once that path and its counter are removed.
 */
template <typename Stats>
std::uint64_t
batchEventsOf(const Stats &s)
{
    if constexpr (requires { s.batchEvents; })
        return s.batchEvents;
    else
        return 0;
}

void
readQueue(const Simulator &sim, CellRecord &r)
{
    const EventQueueStats &s = sim.events().stats();
    r.scheduled = s.scheduled;
    r.executed = s.executed;
    r.peakPending = s.peakPending;
    r.batchEvents = batchEventsOf(s);
    if (!sim.events().profiling())
        return;
    for (const EventProfileEntry &e : sim.events().profile()) {
        TagCost &t = r.profile[std::string(e.tag)];
        t.count += e.count;
        t.wallNs += e.wallNs;
    }
}

void
readNetwork(const Simulator &sim, const Network &net, CellRecord &r)
{
    const NetworkStats &s = net.stats();
    r.topo = std::string(net.statName());
    r.injected = s.injected.value();
    r.packets = s.delivered.value();
    r.dropped = s.dropped.value();
    r.retries = s.retries.value();
    const std::string circuits = net.statPrefix() + ".circuits";
    if (sim.telemetry().has(circuits)) {
        r.circuits =
            static_cast<std::uint64_t>(sim.telemetry().value(circuits));
    }
}

void
digestNetwork(Digest &d, const Network &net)
{
    const NetworkStats &s = net.stats();
    d.add(s.injected.value());
    d.add(s.delivered.value());
    d.add(s.bytesDelivered.value());
    d.add(s.latencyNs.count());
    d.add(s.latencyNs.mean());
    d.add(s.latencyNs.max());
    d.add(s.dropped.value());
    d.add(s.retries.value());
}

/**
 * Fold the per-LP profile tables runOpenLoopPdes writes into one
 * profile (the LP simulators are internal to the run, so the text is
 * all that is observable). Rows: tag, count, total ms, avg ns, %.
 */
Profile
parsePdesProfile(const std::string &text)
{
    Profile out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '[' || line.rfind("event tag", 0) == 0)
            continue;
        std::istringstream row(line);
        std::string tag;
        std::uint64_t count = 0;
        double total_ms = 0.0, avg_ns = 0.0;
        if (!(row >> tag >> count >> total_ms >> avg_ns))
            continue;
        TagCost &t = out[tag];
        t.count += count;
        t.wallNs += static_cast<double>(count) * avg_ns;
    }
    return out;
}

/* ---- cells ---- */

std::unique_ptr<Network>
makeNet(NetSel id, Simulator &sim, const MacrochipConfig &cfg)
{
    return service::makeNetworkFor(id, sim, cfg);
}

CellRecord
runOpenLoopCell(const CellSpec &c, Pass pass, CellSpans &spans)
{
    CellRecord r;
    r.label = c.label;
    const Clock::time_point t0 = Clock::now();
    {
        Simulator sim(c.seed);
        const Clock::time_point t1 = Clock::now();
        std::unique_ptr<Network> net =
            makeNet(c.net, sim, simulatedConfig());
        const Clock::time_point t2 = Clock::now();
        std::unique_ptr<FaultInjector> faults;
        if (c.faults) {
            net->setRetryPolicy(resilienceRetry());
            RandomFaultConfig fc;
            fc.events = faultEventsPerCell;
            fc.horizon = c.traffic.warmup + c.traffic.window;
            faults = std::make_unique<FaultInjector>(
                sim, *net, FaultSchedule::random(c.seed, fc, *net));
            faults->arm();
        }
        const Clock::time_point t3 = Clock::now();
        r.setup.sim = nsBetween(t0, t1);
        r.setup.net = nsBetween(t1, t2);
        r.setup.fault = nsBetween(t2, t3);
        r.topo = std::string(net->statName());
        if (pass == Pass::SetupOnly)
            return r;

        sim.events().setProfiling(pass == Pass::Traced);
        r.traffic = runOpenLoop(sim, *net, c.traffic);
        const Clock::time_point t4 = Clock::now();
        r.runNs = nsBetween(t3, t4);
        spans.add("setup.sim", t0, t1);
        spans.add("setup.net", t1, t2);
        if (c.faults)
            spans.add("setup.fault", t2, t3);
        spans.add("run", t3, t4);

        readQueue(sim, r);
        readNetwork(sim, *net, r);
        r.histOverflow = r.traffic.overflowPackets;

        checkDrained(r.injected, r.packets, r.dropped, r.failures);
        checkWindow(r.traffic, c.traffic, net->config(), r.failures);
        if (!sim.events().empty())
            r.failures.push_back("events pending after the drain");

        Digest d;
        digestInjector(d, r.traffic);
        digestNetwork(d, *net);
        if (faults) {
            r.faultEvents = faults->injectedFaults() + faults->repairs();
            d.add(faults->injectedFaults());
            d.add(faults->repairs());
            d.add(faults->linksDown());
            d.add(faults->linksDerated());
            d.add(faults->sitesDown());
            d.add(faults->minMarginDb());
        }
        r.digest = d.value();
    }
    r.cellNs = nsBetween(t0, Clock::now());
    return r;
}

CellRecord
runCoherenceCell(const CellSpec &c, Pass pass, CellSpans &spans)
{
    CellRecord r;
    r.label = c.label;
    const Clock::time_point t0 = Clock::now();
    {
        Simulator sim(c.seed);
        const Clock::time_point t1 = Clock::now();
        std::unique_ptr<Network> net =
            makeNet(c.net, sim, simulatedConfig());
        const Clock::time_point t2 = Clock::now();
        TraceCpuSystem cpu(sim, *net, c.app, mix64(c.seed));
        const Clock::time_point t3 = Clock::now();
        r.setup.sim = nsBetween(t0, t1);
        r.setup.net = nsBetween(t1, t2);
        r.setup.cpu = nsBetween(t2, t3);
        r.topo = std::string(net->statName());
        if (pass == Pass::SetupOnly)
            return r;

        sim.events().setProfiling(pass == Pass::Traced);
        const TraceCpuResult res = cpu.run();
        const Clock::time_point t4 = Clock::now();
        r.runNs = nsBetween(t3, t4);
        spans.add("setup.sim", t0, t1);
        spans.add("setup.net", t1, t2);
        spans.add("setup.cpu", t2, t3);
        spans.add("run", t3, t4);

        readQueue(sim, r);
        readNetwork(sim, *net, r);
        const CoherenceEngine &eng = cpu.engine();
        const MacrochipConfig &cfg = net->config();
        r.instructions = res.instructions;
        r.coherenceOps = res.coherenceOps;
        r.txnStarted = eng.transactionsStarted();
        r.coalesced = eng.coalescedAccesses();
        const bool directory = c.app.mode == HomeMode::Directory;
        if (directory) {
            // The engine touch()es its L2s on hits only, so the
            // caches' own miss counters stay 0: an access missed when
            // it needed the directory (a transaction, or a ride on an
            // outstanding one).
            for (SiteId s = 0; s < cfg.siteCount(); ++s)
                r.l2Hits += eng.l2(s).hits();
            r.l2Misses = r.txnStarted + r.coalesced;
        }

        checkCoherence(res, c.app, eng, cfg, r.failures);
        checkDrained(r.injected, r.packets, r.dropped, r.failures);
        if (directory)
            checkDirectory(eng, cfg.siteCount(), r.failures);

        Digest d;
        d.add(static_cast<std::uint64_t>(res.runtime));
        d.add(res.instructions);
        d.add(res.coherenceOps);
        d.add(res.opLatencyNs);
        d.add(res.totalJoules);
        d.add(res.routerJoules);
        d.add(res.cpuJoules);
        d.add(res.edp);
        d.add(eng.transactionsCompleted());
        d.add(eng.abortedTransactions());
        d.add(eng.messagesSent());
        d.add(eng.writebacks());
        d.add(eng.coalescedAccesses());
        digestNetwork(d, *net);
        r.digest = d.value();
    }
    r.cellNs = nsBetween(t0, Clock::now());
    return r;
}

CellRecord
runPdesCell(const CellSpec &c, Pass pass, CellSpans &spans)
{
    CellRecord r;
    r.label = c.label;
    r.topo = "pt2pt";
    const Clock::time_point t0 = Clock::now();
    const MacrochipConfig cfg = scaledConfig(16, 16);
    // The replica factory is the PDES run's setup: time each call.
    double factory_ns = 0.0;
    const PdesNetworkFactory factory =
        [&](Simulator &sim) -> std::unique_ptr<Network> {
        const Clock::time_point a = Clock::now();
        std::unique_ptr<Network> net = makeNet(c.net, sim, cfg);
        const Clock::time_point b = Clock::now();
        factory_ns += nsBetween(a, b);
        spans.add("setup.net", a, b);
        return net;
    };

    const std::size_t threads = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, c.lps);
    if (pass == Pass::SetupOnly) {
        // The model runOpenLoopPdes builds before its first event.
        buildPdesModel(factory, c.lps, threads, c.traffic.seed);
        r.setup.net = factory_ns;
        return r;
    }

    std::string profile_text;
    PdesObservability obs;
    obs.timing = true;
    obs.profile = true;
    obs.profileOut = &profile_text;
    const Clock::time_point t1 = Clock::now();
    const PdesInjectorResult pr = runOpenLoopPdes(
        factory, c.traffic, c.lps, threads,
        pass == Pass::Traced ? &obs : nullptr);
    const Clock::time_point t2 = Clock::now();
    r.setup.net = factory_ns;
    r.runNs = nsBetween(t1, t2) - factory_ns;
    spans.add("run", t1, t2);

    r.traffic = pr.result;
    r.packets = pr.result.measuredPackets;
    r.executed = pr.eventsExecuted;
    r.histOverflow = pr.result.overflowPackets;
    r.lps = pr.effectiveLps;
    r.crossPosts = pr.crossPosts;
    r.spills = pr.spscSpills;
    r.load = pr.load;
    if (pass == Pass::Traced)
        r.profile = parsePdesProfile(profile_text);

    if (pr.effectiveLps != c.lps) {
        r.failures.push_back("ran on " + std::to_string(pr.effectiveLps)
                             + " LPs, not " + std::to_string(c.lps));
    }
    checkWindow(r.traffic, c.traffic, cfg, r.failures);
    Digest d;
    digestInjector(d, r.traffic);
    r.digest = d.value();
    r.cellNs = nsBetween(t0, Clock::now());
    return r;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "openloop-8x8", "coherence-8x8", "pdes-16x16"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, bool reduced,
             Workload *out)
{
    if (name == "openloop-8x8")
        *out = openLoopWorkload(seed, reduced);
    else if (name == "coherence-8x8")
        *out = coherenceWorkload(seed, reduced);
    else if (name == "pdes-16x16")
        *out = pdesWorkload(seed, reduced);
    else
        return false;
    return true;
}

Batch
runBatch(const Workload &w, Pass pass, TraceSink *spans)
{
    Batch b;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const CellSpec &c = w.cells[i];
        CellSpans cell_spans(pass == Pass::Traced ? spans : nullptr,
                             static_cast<std::uint32_t>(i));
        const Clock::time_point a = Clock::now();
        CellRecord r;
        try {
            switch (c.kind) {
              case CellKind::OpenLoop:
                r = runOpenLoopCell(c, pass, cell_spans);
                break;
              case CellKind::Coherence:
                r = runCoherenceCell(c, pass, cell_spans);
                break;
              case CellKind::Pdes:
                r = runPdesCell(c, pass, cell_spans);
                break;
            }
        } catch (const macrosim::FatalError &e) {
            r = CellRecord{};
            r.label = c.label;
            r.failures.push_back(std::string("fatal: ") + e.what());
        }
        cell_spans.cell(c.label, a, Clock::now());
        b.cells.push_back(std::move(r));
    }
    // PDES: every LP count must reproduce the first cell's result.
    if (pass != Pass::SetupOnly) {
        for (std::size_t i = 1; i < w.cells.size(); ++i) {
            if (w.cells[i].kind == CellKind::Pdes
                && !bitIdentical(b.cells[0].traffic, b.cells[i].traffic)) {
                b.cells[i].failures.push_back(
                    "result differs from " + b.cells[0].label);
            }
        }
    }
    b.wallNs = nsBetween(t0, Clock::now());
    return b;
}

double
Batch::setupNs() const
{
    double s = 0.0;
    for (const CellRecord &c : cells)
        s += c.setup.total();
    return s;
}

double
Batch::setupNs(double SetupNs::*part) const
{
    double s = 0.0;
    for (const CellRecord &c : cells)
        s += c.setup.*part;
    return s;
}

} // namespace perfbench
