/**
 * @file
 * Ablation: main-memory technology (the paper's section 8 future
 * work: "the performance impacts of different memory technologies").
 *
 * Sweeps the flat fiber-attached memory latency and re-measures the
 * swaptions kernel on the fastest and slowest networks. As memory
 * slows down, the memory term dominates every transaction equally
 * and the network speedup compresses — quantifying how much of the
 * paper's figure 7 spread is attributable to the network itself.
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
    exitOnFatalError();
    const std::uint64_t instr = instructionsArg(argc, argv, 1200);
    rejectUnknownFlags(argc, argv);
    WorkloadSpec spec = workloadByName("swaptions");
    spec.instructionsPerCore = instr;

    std::printf("Memory-latency ablation (swaptions, %llu "
                "instr/core)\n\n",
                static_cast<unsigned long long>(instr));
    std::printf("%10s %14s %14s %14s %12s\n", "mem (ns)",
                "p2p op (ns)", "CS op (ns)", "p2p rt (ns)",
                "p2p speedup");

    for (const Tick mem_ns : {Tick{0}, Tick{25}, Tick{50}, Tick{100},
                              Tick{200}}) {
        MacrochipConfig cfg = simulatedConfig();
        cfg.memoryLatency = mem_ns * tickNs;

        Simulator sim_a(3);
        PointToPointNetwork p2p(sim_a, cfg);
        const auto a = TraceCpuSystem(sim_a, p2p, spec, 7).run();

        Simulator sim_b(3);
        CircuitSwitchedTorus cs(sim_b, cfg);
        const auto b = TraceCpuSystem(sim_b, cs, spec, 7).run();

        std::printf("%10llu %14.1f %14.1f %14.0f %12.2f\n",
                    static_cast<unsigned long long>(mem_ns),
                    a.opLatencyNs, b.opLatencyNs, a.runtimeNs(),
                    static_cast<double>(b.runtime)
                        / static_cast<double>(a.runtime));
        std::fflush(stdout);
    }
    std::printf("\nSpeedup compresses as memory dominates: the "
                "figure 7 spread is a *network* effect.\n");
    return 0;
}
