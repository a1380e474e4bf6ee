/**
 * @file
 * Extension bench: message-passing workloads (the paper's section 8
 * future work) — three collectives at cache-line and bulk message
 * sizes on all six networks.
 *
 * Finding: the paper's conclusion is message-size dependent. At
 * cache-line sizes (64 B) the point-to-point network's zero-overhead
 * channels win exactly as in figures 7/8. At bulk MPI sizes (4 KB)
 * the 2-bit point-to-point channels become serialization-bound
 * (4 KB at 5 GB/s is 819 ns) and the wide-datapath networks the
 * paper rejects for coherence traffic — the 320 GB/s token-ring
 * bundles and 80 GB/s circuits, whose arbitration/setup overheads
 * amortize over the payload — win instead. This is the quantitative
 * version of section 8's open question about message-passing
 * workloads.
 */

#include <cstdio>

#include "harness.hh"

#include "sim/logging.hh"
#include "workloads/message_passing.hh"

using namespace macrosim;
using namespace macrosim::bench;

int
main()
{
    setQuiet(true);
    std::printf("Message-passing collectives: communication time per "
                "iteration (ns)\n\n");

    const struct
    {
        Collective collective;
        std::uint32_t bytes;
    } workloads[] = {
        {Collective::HaloExchange, 64},
        {Collective::HaloExchange, 4096},
        {Collective::AllToAll, 64},
        {Collective::AllToAll, 4096},
        {Collective::AllReduce, 64},
        {Collective::AllReduce, 4096},
    };

    std::printf("%-16s %8s", "collective", "bytes");
    for (const NetSel id : allNetworks)
        std::printf(" %17s", netDisplayName(id).c_str());
    std::printf("\n");

    for (const auto &w : workloads) {
        std::printf("%-16s %8u",
                    std::string(to_string(w.collective)).c_str(),
                    w.bytes);
        for (const NetSel id : allNetworks) {
            Simulator sim(5);
            auto net = makeNetworkFor(id, sim, simulatedConfig());
            MpiWorkloadSpec spec;
            spec.collective = w.collective;
            spec.messageBytes = w.bytes;
            spec.iterations = 5;
            spec.computeTime = 100 * tickNs;
            MessagePassingSystem mpi(sim, *net, spec);
            const MpiResult res = mpi.run();
            std::printf(" %17.1f",
                        res.commNsPerIteration(spec.computeTime));
            std::fflush(stdout);
        }
        std::printf("\n");
    }
    return 0;
}
