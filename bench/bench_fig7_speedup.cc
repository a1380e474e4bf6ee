/**
 * @file
 * Regenerates Figure 7: speedup of every network relative to the
 * circuit-switched network, for the six application kernels and the
 * five synthetic coherence workloads.
 *
 * Shape targets from the paper: the point-to-point network wins
 * overall (3-8.3x over circuit-switched), is at least ~4.5x better
 * than the arbitrated networks on the MS mix, the limited
 * point-to-point leads on nearest-neighbor (~5x over
 * circuit-switched), the two-phase beats token-ring/circuit-switched
 * by >=1.6x, ALT improves ~1.4x on all-to-all, and Barnes shows
 * small spreads because it barely stresses any network.
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
    rejectUnknownFlags(argc, argv);
    const std::size_t jobs = flags.jobs;
    const std::uint64_t seed = flags.seed;
    const TelemetryOptions &topt = flags.telemetry;
    const std::uint64_t instr =
        instructionsArg(argc, argv, topt.smoke ? 200 : 1200);
    std::fprintf(stderr, "fig7: %llu instructions/core\n",
                 static_cast<unsigned long long>(instr));
    SweepRecorder rec(topt);
    const auto matrix = runWorkloadMatrix(instr, seed, jobs, true, &rec);
    rec.write();

    std::printf("Figure 7: Speedup vs. Circuit-Switched Network\n\n");
    std::printf("%-14s", "workload");
    for (const NetSel id : allNetworks)
        std::printf(" %16s", netDisplayName(id).c_str());
    std::printf("\n");

    for (const WorkloadSpec &spec : figureWorkloads(instr)) {
        const double cs_runtime =
            static_cast<double>(find(matrix, spec.name,
                                     NetSel::CircuitSwitched)
                                    .runtime);
        std::printf("%-14s", spec.name.c_str());
        for (const NetSel id : allNetworks) {
            const auto &r = find(matrix, spec.name, id);
            std::printf(" %16.2f",
                        cs_runtime / static_cast<double>(r.runtime));
        }
        std::printf("\n");
    }
    return 0;
}
