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
 * Telemetry (all optional, see TelemetryOptions in flags.hh):
 * --trace=<file> writes a Perfetto trace-event JSON with one process
 * per (pattern, network, load) run — message lifecycle spans,
 * channel-occupancy counter tracks and the event-loop self-profile —
 * and validates the JSON before writing it. --metrics=<file> plus
 * --metrics-period=<ticks> write periodic StatRegistry snapshots as
 * a time-series CSV. --smoke reduces the sweep for CI.
 */

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "harness.hh"

#include "sim/logging.hh"
#include "sim/sweep.hh"

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
    NetSel id;
    std::vector<InjectorResult> points;
    double maxSustainedPct = 0.0;
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
 * is the unit of parallelism, not the point. Each point's run
 * records into the curve's cell of @p rec under its own pid
 * (pid_base + point index).
 */
Curve
traceCurve(const PatternSweep &sweep, NetSel id, SweepRecorder &rec,
           std::size_t cell, std::uint32_t pid_base, std::uint64_t seed)
{
    Curve curve;
    curve.id = id;
    std::uint32_t point = 0;
    for (const double load : sweep.loads) {
        Simulator sim(seed);
        auto net = makeNetworkFor(id, sim, simulatedConfig());
        SweepRecorder::Cell telemetry(rec, cell, pid_base + point++, sim,
                                      *net);

        InjectorConfig cfg;
        cfg.pattern = sweep.pattern;
        cfg.load = load;
        cfg.warmup = 500 * tickNs;
        cfg.window = 2500 * tickNs;
        cfg.seed = seed;
        const InjectorResult r = runOpenLoop(sim, *net, cfg);

        std::ostringstream label;
        label << to_string(sweep.pattern) << " / " << netDisplayName(id)
              << " @ " << load * 100.0 << "%";
        telemetry.finish(label.str());

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
    rejectUnknownFlags(argc, argv);
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

    SweepRecorder rec(topt);
    SweepRunner runner(jobs);
    for (const PatternSweep &sweep : selected) {
        const std::string pattern_name =
            std::string(to_string(sweep.pattern));

        std::vector<SweepJob<Curve>> curve_jobs;
        const std::size_t first = rec.addCells(fig6Networks.size());
        for (std::size_t i = 0; i < fig6Networks.size(); ++i) {
            const NetSel id = fig6Networks[i];
            const std::size_t cell = first + i;
            const std::uint32_t pid_base =
                static_cast<std::uint32_t>(cell) * pidsPerCurve;
            curve_jobs.push_back(SweepJob<Curve>{
                pattern_name + " / " + netDisplayName(id),
                [&sweep, id, &rec, cell, pid_base, seed] {
                    return traceCurve(sweep, id, rec, cell, pid_base,
                                      seed);
                }});
        }
        std::vector<Curve> curves =
            runner.run("fig6-" + pattern_name, std::move(curve_jobs));

        for (const Curve &curve : curves) {
            for (const InjectorResult &r : curve.points) {
                std::printf("%s,%s,%.2f,%.1f,%.1f,%.2f\n",
                            pattern_name.c_str(),
                            netDisplayName(curve.id).c_str(),
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
                        netDisplayName(curve.id).c_str(),
                        curve.maxSustainedPct);
        }
        std::printf("\n");
    }
    rec.write();
    return 0;
}
