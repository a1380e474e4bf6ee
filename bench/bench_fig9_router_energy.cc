/**
 * @file
 * Regenerates Figure 9: energy used by the electronic routers of the
 * limited point-to-point network as a percentage of its total
 * network energy, per workload.
 *
 * Shape targets from the paper: at most ~17% on the synthetic
 * workloads and ~10.4% on the application kernels.
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
    const std::size_t jobs = flags.jobs;
    const std::uint64_t seed = flags.seed;
    const std::uint64_t instr = instructionsArg(argc, argv, 1200);

    std::printf("Figure 9: Router Energy in the Limited "
                "Point-to-Point Network (%% of total system "
                "energy)\n\n");
    std::printf("%-14s %12s %14s %14s %14s\n", "workload",
                "router_pct", "router_mJ", "network_mJ", "cpu_mJ");

    std::vector<SweepJob<TraceCpuResult>> sweep;
    for (WorkloadSpec spec : figureWorkloads(instr)) {
        const std::uint64_t cell_seed =
            deriveSeed(seed, spec.name, "Limited Point-to-Point");
        sweep.push_back(SweepJob<TraceCpuResult>{
            spec.name, [spec = std::move(spec), cell_seed] {
                Simulator sim(cell_seed);
                LimitedPointToPointNetwork net(sim, simulatedConfig());
                TraceCpuSystem cpu(sim, net, spec, mix64(cell_seed));
                return cpu.run();
            }});
    }

    const std::vector<TraceCpuResult> results =
        SweepRunner(jobs).run("fig9-workloads", std::move(sweep));
    if (sweepInterrupted())
        return sweepExitStatus();
    for (const TraceCpuResult &r : results) {
        std::printf("%-14s %11.2f%% %14.4f %14.4f %14.4f\n",
                    r.workload.c_str(), r.routerEnergyPct(),
                    r.routerJoules * 1e3, r.totalJoules * 1e3,
                    r.cpuJoules * 1e3);
    }
    return sweepExitStatus();
}
