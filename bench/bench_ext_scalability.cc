/**
 * @file
 * Extension bench: scaling the macrochip beyond the paper.
 *
 * Sweeps the R x C grid through 8x8 -> 16x16 -> 24x24 (the Table 4
 * system and two "what if the 2015 vision kept growing" points) for
 * all six networks — the paper's five architectures plus the
 * hierarchical hermes broadcast network. Every (grid, network) point
 * first passes the photonic feasibility gate: the worst-case link's
 * required launch power is checked against the waveguide-nonlinearity
 * ceiling (photonics/link_budget). Feasible points run the open-loop
 * uniform-traffic injector and report simulated latency, delivered
 * throughput and network energy alongside the analytic laser power;
 * infeasible points report the verdict and the analytic numbers only
 * — no amount of laser power closes those links, so simulating them
 * would manufacture results for unbuildable hardware.
 *
 * Also retained from the original section 6.4 bench: the WDM-scaling
 * table showing point-to-point bandwidth growing at constant
 * waveguide count.
 *
 * Flags:
 *   --rows N --cols M   sweep a single custom grid instead
 *   --network <slug>    one network only (tring, cswitch, pt2pt,
 *                       lpt2pt, 2phase, hermes)
 *   --smoke             16x16 only, short window (CI)
 *   --jobs N, --seed N  the usual sweep knobs
 *   --trace, --metrics, --metrics-period, --profile, --sim-stats
 *                       the shared telemetry flags: one trace process
 *                       per simulated point
 *
 * A full (non-smoke) run pins the table in BENCH_scaling.json. Every
 * run builds that pin and exits non-zero if it fails jsonValid();
 * values that are not finite (a saturated point's tail quantile
 * overflows the latency histogram) and the traffic columns of
 * infeasible points are written as null.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hh"
#include "net/analysis.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"
#include "sim/telemetry/json.hh"
#include "workloads/packet_injector.hh"

using namespace macrosim;
using namespace macrosim::bench;

namespace
{

struct GridSpec
{
    std::uint32_t rows = 8;
    std::uint32_t cols = 8;
};

struct Point
{
    GridSpec grid;
    NetSel id = NetSel::PointToPoint;
    LinkFeasibility feas;
    double laserW = 0.0;
    double staticW = 0.0;
    bool simulated = false;
    InjectorResult traffic;
    double energyMj = 0.0;
};

Point
runPoint(GridSpec grid, NetSel id, std::uint64_t seed,
         SweepRecorder &rec, std::size_t cell)
{
    const std::string label = std::to_string(grid.rows) + "x"
        + std::to_string(grid.cols);
    const std::uint64_t cell_seed =
        deriveSeed(seed, "scale-" + label, netDisplayName(id));

    const MacrochipConfig cfg = scaledConfig(grid.rows, grid.cols);
    Simulator sim(cell_seed);
    auto net = makeNetworkFor(id, sim, cfg);

    Point p;
    p.grid = grid;
    p.id = id;
    p.feas = net->feasibility();
    p.laserW = net->laserWatts();
    p.staticW = net->staticWatts();
    if (!p.feas.feasible) {
        // The gate: links this lossy cannot be closed under the
        // launch-power ceiling, so no latency/energy numbers exist
        // for this point.
        return p;
    }

    SweepRecorder::Cell telemetry(
        rec, cell, static_cast<std::uint32_t>(cell), sim, *net);
    InjectorConfig icfg;
    icfg.pattern = TrafficPattern::Uniform;
    icfg.load = 0.05;
    icfg.warmup = rec.options().smoke ? 250 * tickNs : 500 * tickNs;
    icfg.window = rec.options().smoke ? 1000 * tickNs : 2000 * tickNs;
    icfg.seed = cell_seed;
    p.traffic = runOpenLoop(sim, *net, icfg);
    p.energyMj = net->energy().totalJoules(sim.modelEnd()) * 1e3;
    p.simulated = true;
    telemetry.finish(netDisplayName(id) + " @ " + label);
    return p;
}

/** Positive-integer flag on top of the shared stripNumberFlag(). */
bool
numberFlag(int &argc, char **argv, const char *name,
           std::uint32_t &out)
{
    std::uint64_t v = 0;
    if (!stripNumberFlag(argc, argv, name, &v))
        return false;
    if (v == 0 || v > 0xFFFFFFFFull)
        fatal("bench_ext_scalability: --", name,
              " must be a positive integer, got ", v);
    out = static_cast<std::uint32_t>(v);
    return true;
}

void
printWdmTable()
{
    std::printf("Section 6.4: WDM scaling at 64 sites (constant "
                "point-to-point waveguides)\n");
    std::printf("  %-24s %4s %9s %10s %12s\n", "network", "wdm",
                "TB/s", "waveguides", "wgs per TB/s");
    for (std::uint32_t wdm : {8u, 16u, 32u}) {
        MacrochipConfig cfg = simulatedConfig();
        cfg.wavelengthsPerWaveguide = wdm;
        cfg.txPerSite = 128 * wdm / 8;
        cfg.rxPerSite = cfg.txPerSite;
        const auto rows = analyzeAllNetworks(cfg);
        const auto &p2p = rows[2];
        std::printf("  %-24s %4u %9.1f %10llu %12.2f\n",
                    p2p.network.c_str(), wdm, p2p.peakTBs,
                    static_cast<unsigned long long>(
                        p2p.counts.waveguides),
                    p2p.waveguidesPerTBs());
    }
    std::printf("  %-24s %4s %9s %10llu wires (16-bit links)\n",
                "electronic full mesh", "-", "-",
                static_cast<unsigned long long>(
                    electronicPointToPointWires(64, 16)));
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const BenchFlags flags = benchFlags(argc, argv, 1);
    const std::size_t jobs = flags.jobs;
    const std::uint64_t seed = flags.seed;
    const TelemetryOptions &topt = flags.telemetry;

    std::uint32_t rows_flag = 0;
    std::uint32_t cols_flag = 0;
    const bool have_rows = numberFlag(argc, argv, "rows", rows_flag);
    const bool have_cols = numberFlag(argc, argv, "cols", cols_flag);
    std::string net_flag;
    const bool have_net =
        stripValueFlag(argc, argv, "network", &net_flag);
    rejectUnknownFlags(argc, argv);

    std::vector<GridSpec> grids = {{8, 8}, {16, 16}, {24, 24}};
    if (topt.smoke)
        grids = {{16, 16}};
    if (have_rows || have_cols) {
        GridSpec g;
        g.rows = have_rows ? rows_flag : 8;
        g.cols = have_cols ? cols_flag : g.rows;
        grids = {g};
    }

    std::vector<NetSel> nets(extendedNetworks.begin(),
                            extendedNetworks.end());
    if (have_net) {
        NetSel only;
        if (!netFromString(net_flag, &only))
            fatal("bench_ext_scalability: unknown --network '",
                  net_flag, "' (try tring, cswitch, pt2pt, lpt2pt, "
                  "2phase, hermes)");
        nets = {only};
    }

    printWdmTable();

    std::printf("\nGrid scaling with the feasibility gate "
                "(uniform traffic @ 5%% load)\n\n");
    std::printf("grid,network,feasible,loss_db,required_launch_dbm,"
                "margin_db,laser_w,static_w,mean_ns,p99_ns,"
                "delivered_pct,energy_mj\n");

    SweepRecorder rec(topt);
    std::size_t cell = rec.addCells(grids.size() * nets.size());
    std::vector<SweepJob<Point>> sweep;
    for (const GridSpec grid : grids) {
        for (const NetSel id : nets) {
            sweep.push_back(SweepJob<Point>{
                netDisplayName(id) + " @ " + std::to_string(grid.rows) + "x"
                    + std::to_string(grid.cols),
                [grid, id, seed, &rec, cell = cell++] {
                    return runPoint(grid, id, seed, rec, cell);
                }});
        }
    }

    const std::vector<Point> points =
        SweepRunner(jobs).run("scalability", std::move(sweep));
    rec.write();
    if (sweepInterrupted())
        return sweepExitStatus();

    std::vector<JsonObject> entries;
    for (const Point &p : points) {
        char line[256];
        if (p.simulated) {
            std::snprintf(line, sizeof(line),
                          "%ux%u,%s,yes,%.2f,%.2f,%.2f,%.1f,%.1f,"
                          "%.1f,%.1f,%.2f,%.3f\n",
                          p.grid.rows, p.grid.cols,
                          netDisplayName(p.id).c_str(),
                          p.feas.totalLoss.value(),
                          p.feas.requiredLaunch.value(),
                          p.feas.margin.value(), p.laserW, p.staticW,
                          p.traffic.meanLatencyNs,
                          p.traffic.p99LatencyNs,
                          p.traffic.deliveredPct, p.energyMj);
        } else {
            std::snprintf(line, sizeof(line),
                          "%ux%u,%s,infeasible,%.2f,%.2f,%.2f,%.1f,"
                          "%.1f,-,-,-,-\n",
                          p.grid.rows, p.grid.cols,
                          netDisplayName(p.id).c_str(),
                          p.feas.totalLoss.value(),
                          p.feas.requiredLaunch.value(),
                          p.feas.margin.value(), p.laserW,
                          p.staticW);
        }
        std::fputs(line, stdout);

        // Traffic columns exist only for simulated points: null
        // otherwise, as for a value that is not finite.
        const auto traffic = [&p](double v) {
            return p.simulated ? v : std::nan("");
        };
        JsonObject entry;
        entry
            .string("grid", std::to_string(p.grid.rows) + "x"
                                + std::to_string(p.grid.cols))
            .string("network", netDisplayName(p.id))
            .boolean("feasible", p.feas.feasible)
            .number("loss_db", p.feas.totalLoss.value())
            .number("required_launch_dbm", p.feas.requiredLaunch.value())
            .number("margin_db", p.feas.margin.value())
            .number("laser_w", p.laserW)
            .number("mean_ns", traffic(p.traffic.meanLatencyNs))
            .number("p99_ns", traffic(p.traffic.p99LatencyNs))
            .number("delivered_pct", traffic(p.traffic.deliveredPct))
            .number("energy_mj", traffic(p.energyMj));
        entries.push_back(entry);
    }

    const std::string pin =
        pinJson("scaling", JsonObject().objects("points", entries));
    if (!topt.smoke && !have_net && !have_rows && !have_cols)
        writeJsonFile("BENCH_scaling.json", pin);
    return sweepExitStatus();
}
