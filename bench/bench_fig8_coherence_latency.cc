/**
 * @file
 * Regenerates Figure 8: average latency per coherence operation (ns)
 * for each workload on each network.
 *
 * Shape targets from the paper: the point-to-point network stays at
 * or below ~54 ns on the application kernels and ~100 ns on the
 * synthetics, while the arbitrated and circuit-switched networks
 * reach hundreds of nanoseconds.
 */

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
    const std::size_t jobs = flags.jobs;
    const std::uint64_t seed = flags.seed;
    const TelemetryOptions &topt = flags.telemetry;
    const std::uint64_t instr =
        instructionsArg(argc, argv, topt.smoke ? 200 : 1200);
    rejectUnknownFlags(argc, argv);
    SweepRecorder rec(topt);
    const auto matrix = runWorkloadMatrix(instr, seed, jobs, true, &rec);
    rec.write();

    std::printf("Figure 8: Latency per Coherence Operation (ns)\n\n");
    std::printf("%-14s", "workload");
    for (const NetSel id : allNetworks)
        std::printf(" %16s", netDisplayName(id).c_str());
    std::printf("\n");

    for (const WorkloadSpec &spec : figureWorkloads(instr)) {
        std::printf("%-14s", spec.name.c_str());
        for (const NetSel id : allNetworks) {
            std::printf(" %16.1f",
                        find(matrix, spec.name, id).opLatencyNs);
        }
        std::printf("\n");
    }
    return 0;
}
