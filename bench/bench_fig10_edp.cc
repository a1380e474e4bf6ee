/**
 * @file
 * Regenerates Figure 10: energy-delay product of every network,
 * normalized to the point-to-point network (log scale in the paper).
 *
 * Shape targets: the arbitrated and circuit-switched networks exceed
 * 100x the point-to-point EDP on most application kernels; the
 * limited point-to-point stays within ~26x.
 */

#include <cmath>
#include <cstdio>

#include "harness.hh"

#include "sim/logging.hh"

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
    const TelemetryOptions &topt = flags.telemetry;
    const std::uint64_t instr =
        instructionsArg(argc, argv, topt.smoke ? 200 : 1200);
    SweepRecorder rec(topt);
    const auto matrix = runWorkloadMatrix(instr, seed, jobs, true, &rec);
    rec.write();

    std::printf("Figure 10: Energy-Delay Product, Normalized to "
                "Point-to-Point\n\n");
    std::printf("%-14s", "workload");
    for (const NetSel id : allNetworks)
        std::printf(" %16s", netDisplayName(id).c_str());
    std::printf("\n");

    for (const WorkloadSpec &spec : figureWorkloads(instr)) {
        const double p2p_edp =
            find(matrix, spec.name, NetSel::PointToPoint).edp;
        std::printf("%-14s", spec.name.c_str());
        for (const NetSel id : allNetworks) {
            const auto &r = find(matrix, spec.name, id);
            std::printf(" %16.1f", r.edp / p2p_edp);
        }
        std::printf("\n");
    }

    std::printf("\nlog10 of the same (the paper plots a log axis):\n");
    for (const WorkloadSpec &spec : figureWorkloads(instr)) {
        const double p2p_edp =
            find(matrix, spec.name, NetSel::PointToPoint).edp;
        std::printf("%-14s", spec.name.c_str());
        for (const NetSel id : allNetworks) {
            const auto &r = find(matrix, spec.name, id);
            std::printf(" %16.2f", std::log10(r.edp / p2p_edp));
        }
        std::printf("\n");
    }
    return 0;
}
