/**
 * @file
 * Extension bench: three additional SPLASH-2 kernels (FFT, LU,
 * Ocean) beyond the paper's Table 2 set, on all six networks.
 *
 * Expected shape, extrapolating figure 7: FFT behaves like radix
 * (transpose-heavy, point-to-point strong); LU behaves like barnes
 * (low miss rate, small spreads); Ocean's neighbor locality favours
 * the limited point-to-point the way fluidanimate does.
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
    const std::uint64_t instr = instructionsArg(argc, argv, 1200);

    std::printf("Extended application kernels: speedup vs "
                "circuit-switched / latency per op (ns)\n\n");
    std::printf("%-10s", "workload");
    for (const NetSel id : allNetworks)
        std::printf(" %22s", netDisplayName(id).c_str());
    std::printf("\n");

    for (WorkloadSpec spec : extendedWorkloads()) {
        spec.instructionsPerCore = instr;
        struct Row
        {
            Tick runtime;
            double opLat;
        };
        std::vector<Row> rows;
        for (const NetSel id : allNetworks) {
            Simulator sim(3);
            auto net = makeNetworkFor(id, sim, simulatedConfig());
            TraceCpuSystem cpu(sim, *net, spec, 5);
            const TraceCpuResult r = cpu.run();
            rows.push_back({r.runtime, r.opLatencyNs});
        }
        const double cs_runtime =
            static_cast<double>(rows[1].runtime); // CS is index 1
        std::printf("%-10s", spec.name.c_str());
        for (const Row &r : rows) {
            std::printf("        %6.2fx /%6.1f",
                        cs_runtime / static_cast<double>(r.runtime),
                        r.opLat);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    return 0;
}
