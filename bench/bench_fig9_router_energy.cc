/**
 * @file
 * Regenerates Figure 9: energy used by the electronic routers of the
 * limited point-to-point network as a percentage of its total
 * network energy, per workload.
 *
 * Shape targets from the paper: at most ~17% on the synthetic
 * workloads and ~10.4% on the application kernels.
 *
 * Flags: --jobs N, --seed N and the shared telemetry flags (--trace,
 * --metrics, --metrics-period, --profile, --sim-stats), which
 * record one trace process per workload.
 */

#include <cstdio>
#include <utility>

#include "harness.hh"

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"

using namespace macrosim;
using namespace macrosim::bench;

int
main(int argc, char **argv)
{
    setQuiet(true);
    const BenchFlags flags = benchFlags(argc, argv, 1);
    rejectUnknownFlags(argc, argv);
    const std::size_t jobs = flags.jobs;
    const std::uint64_t seed = flags.seed;
    const std::uint64_t instr = instructionsArg(argc, argv, 1200);

    std::printf("Figure 9: Router Energy in the Limited "
                "Point-to-Point Network (%% of total system "
                "energy)\n\n");
    std::printf("%-14s %12s %14s %14s %14s\n", "workload",
                "router_pct", "router_mJ", "network_mJ", "cpu_mJ");

    const std::vector<WorkloadSpec> workloads = figureWorkloads(instr);
    SweepRecorder rec(flags.telemetry);
    const std::size_t first = rec.addCells(workloads.size());
    std::vector<SweepJob<TraceCpuResult>> sweep;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const WorkloadSpec &spec = workloads[i];
        const std::uint64_t cell_seed =
            deriveSeed(seed, spec.name, "Limited Point-to-Point");
        const auto pid = static_cast<std::uint32_t>(i);
        sweep.push_back(SweepJob<TraceCpuResult>{
            spec.name, [spec, cell_seed, &rec, cell = first + i, pid] {
                Simulator sim(cell_seed);
                LimitedPointToPointNetwork net(sim, simulatedConfig());
                SweepRecorder::Cell telemetry(rec, cell, pid, sim, net);
                TraceCpuSystem cpu(sim, net, spec, mix64(cell_seed));
                TraceCpuResult r = cpu.run();
                telemetry.finish(spec.name);
                return r;
            }});
    }

    const std::vector<TraceCpuResult> results =
        SweepRunner(jobs).run("fig9-workloads", std::move(sweep));
    rec.write();
    for (const TraceCpuResult &r : results) {
        std::printf("%-14s %11.2f%% %14.4f %14.4f %14.4f\n",
                    r.workload.c_str(), r.routerEnergyPct(),
                    r.routerJoules * 1e3, r.totalJoules * 1e3,
                    r.cpuJoules * 1e3);
    }
    return 0;
}
