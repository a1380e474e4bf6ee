/**
 * @file
 * Regenerates Figure 6: latency vs offered load for the uniform,
 * transpose, nearest-neighbor and butterfly patterns across the five
 * networks, using the open-loop 64-byte packet injector of
 * section 6.1. Offered load is a percentage of 320 B/ns per site.
 *
 * Shape targets from the paper: point-to-point sustains ~95% of peak
 * on uniform (5 GB/s = 1.56% on the one-to-one patterns); token ring
 * ~40% uniform but <1% one-to-one; limited point-to-point ~47%
 * uniform and ~25% nearest-neighbor; circuit-switched ~2.5%;
 * two-phase ~7.5%.
 *
 * Telemetry (all optional, see TelemetryOptions in harness.hh):
 * --trace=<file> writes a Perfetto trace-event JSON with one process
 * per (pattern, network, load) run — message lifecycle spans,
 * channel-occupancy counter tracks and the event-loop self-profile —
 * and self-validates the JSON before exiting. --metrics=<file> plus
 * --metrics-period=<ticks> write periodic StatRegistry snapshots as
 * a time-series CSV. --smoke reduces the sweep for CI.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "harness.hh"

#include "net/tracer.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"
#include "sim/telemetry/json.hh"

using namespace macrosim;
using namespace macrosim::bench;

namespace
{

struct PatternSweep
{
    TrafficPattern pattern;
    std::vector<double> loads; // fraction of per-site peak
};

/** One (pattern, network) curve: its load points up to saturation. */
struct Curve
{
    NetId id;
    std::vector<InjectorResult> points;
    double maxSustainedPct = 0.0;
    CellTelemetry telemetry;
};

const std::vector<PatternSweep> sweeps = {
    {TrafficPattern::Uniform,
     {0.01, 0.02, 0.05, 0.08, 0.12, 0.20, 0.30, 0.40, 0.50, 0.70,
      0.90}},
    {TrafficPattern::Transpose,
     {0.0025, 0.005, 0.01, 0.014, 0.02, 0.03, 0.04, 0.06}},
    {TrafficPattern::Neighbor,
     {0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.25}},
    {TrafficPattern::Butterfly,
     {0.0025, 0.005, 0.01, 0.014, 0.02, 0.03, 0.04, 0.06}},
};

/** Latency past which a load point counts as saturated. */
constexpr double saturatedNs = 400.0;

/** Each curve owns a block of pids: one per load point. */
constexpr std::uint32_t pidsPerCurve = 16;

/**
 * Trace one (pattern, network) latency-load curve serially: the
 * points of a curve feed an early-exit at saturation, so the curve
 * is the unit of parallelism, not the point. With telemetry enabled
 * each point's run additionally records message spans, occupancy
 * counters and the event-loop profile into the curve's sink under
 * its own pid (pid_base + point index).
 */
Curve
traceCurve(const PatternSweep &sweep, NetId id,
           std::uint32_t pid_base, const TelemetryOptions &topt,
           std::uint64_t seed)
{
    Curve curve;
    curve.id = id;
    std::uint32_t point = 0;
    for (const double load : sweep.loads) {
        Simulator sim(seed);
        auto net = makeNetwork(id, sim, simulatedConfig());

        std::ostringstream label_os;
        label_os << to_string(sweep.pattern) << " / " << netName(id)
                 << " @ " << load * 100.0 << "%";
        const std::string label = label_os.str();
        const std::uint32_t pid = pid_base + point++;

        std::unique_ptr<MessageTracer> tracer;
        std::unique_ptr<PeriodicSampler> counters;
        std::unique_ptr<SnapshotRecorder> snapshots;
        if (topt.tracing()) {
            tracer = std::make_unique<MessageTracer>(*net);
            counters = occupancyCounterSampler(
                sim, curve.telemetry.trace, pid, topt.period());
            sim.events().setProfiling(true);
        }
        if (topt.metrics()) {
            snapshots =
                std::make_unique<SnapshotRecorder>(sim, topt.period());
        }
        if (topt.profile)
            sim.events().setProfiling(true);

        InjectorConfig cfg;
        cfg.pattern = sweep.pattern;
        cfg.load = load;
        cfg.warmup = 500 * tickNs;
        cfg.window = 2500 * tickNs;
        cfg.seed = seed;
        const InjectorResult r = runOpenLoop(sim, *net, cfg);

        if (tracer) {
            tracer->writeTrace(curve.telemetry.trace, pid, label);
            traceEventProfile(curve.telemetry.trace, pid, sim);
        }
        if (snapshots) {
            curve.telemetry.metricsCsv += "# " + label + "\n"
                + snapshots->csv();
        }
        if (topt.profile)
            dumpEventProfile(label, sim);
        if (simStatsEnabled())
            dumpSimStats(label, sim);

        curve.points.push_back(r);
        if (r.meanLatencyNs > saturatedNs)
            break;
        curve.maxSustainedPct =
            std::max(curve.maxSustainedPct, r.deliveredPct);
    }
    return curve;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const BenchFlags flags = benchFlags(argc, argv, 17);
    const std::size_t jobs = flags.jobs;
    const std::uint64_t seed = flags.seed;
    const TelemetryOptions &topt = flags.telemetry;

    // --smoke: one pattern, two load points — enough to exercise the
    // full telemetry path in seconds for the CI trace-validation test.
    std::vector<PatternSweep> selected = sweeps;
    if (topt.smoke) {
        selected.resize(1);
        selected[0].loads.resize(2);
    }

    std::printf("Figure 6: Latency vs. Offered Load "
                "(64 B packets, %% of 320 B/ns per site)\n\n");
    std::printf("pattern,network,offered_pct,latency_ns,p99_ns,"
                "delivered_pct\n");

    MatrixTelemetry merged;
    SweepRunner runner(jobs);
    std::uint32_t curve_idx = 0;
    for (const PatternSweep &sweep : selected) {
        const std::string pattern_name =
            std::string(to_string(sweep.pattern));

        std::vector<SweepJob<Curve>> curve_jobs;
        for (const NetId id : fig6Networks) {
            const std::uint32_t pid_base = curve_idx++ * pidsPerCurve;
            curve_jobs.push_back(SweepJob<Curve>{
                pattern_name + " / " + netName(id),
                [&sweep, id, pid_base, &topt, seed] {
                    return traceCurve(sweep, id, pid_base, topt,
                                      seed);
                }});
        }
        std::vector<Curve> curves =
            runner.run("fig6-" + pattern_name, std::move(curve_jobs));
        if (sweepInterrupted())
            return sweepExitStatus();

        for (const Curve &curve : curves) {
            for (const InjectorResult &r : curve.points) {
                std::printf("%s,%s,%.2f,%.1f,%.1f,%.2f\n",
                            pattern_name.c_str(),
                            netName(curve.id).c_str(),
                            r.offeredLoadPct, r.meanLatencyNs,
                            r.p99LatencyNs, r.deliveredPct);
            }
        }
        std::fflush(stdout);

        std::printf("\n# %s: max sustained bandwidth "
                    "(%% of per-site peak)\n",
                    pattern_name.c_str());
        for (const Curve &curve : curves) {
            std::printf("#   %-24s %6.2f%%\n",
                        netName(curve.id).c_str(),
                        curve.maxSustainedPct);
        }
        std::printf("\n");

        // Merge in submission order: deterministic for any --jobs.
        for (Curve &curve : curves) {
            merged.trace.append(std::move(curve.telemetry.trace));
            merged.metricsCsv += curve.telemetry.metricsCsv;
        }
    }

    if (topt.metrics() && !topt.metricsPath.empty())
        writeTextFile(topt.metricsPath, merged.metricsCsv);

    if (topt.tracing()) {
        std::ostringstream json;
        merged.trace.writeJson(json);
        writeTextFile(topt.tracePath, json.str());
        std::string error;
        if (!jsonValid(json.str(), &error)) {
            std::fprintf(stderr,
                         "fig6: trace '%s' is not valid JSON: %s\n",
                         topt.tracePath.c_str(), error.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "fig6: wrote %zu trace events to %s (%llu "
                     "dropped)\n",
                     merged.trace.size(), topt.tracePath.c_str(),
                     static_cast<unsigned long long>(
                         merged.trace.dropped()));
    }
    return sweepExitStatus();
}
