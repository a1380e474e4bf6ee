/**
 * @file
 * Regenerates Table 6 (total optical component counts) from each
 * topology's constructive description.
 *
 * Paper reference values:
 *   Token-Ring         512K Tx   8192 Rx   32K wgs      0 switches
 *   Point-to-Point     8192      8192      3072         0
 *   Circuit-Switched   8192      8192      2048      1024 (4x4)
 *   Limited Pt-to-Pt   8192      8192      3072       128 routers
 *   Two-Phase data     8192      8192      4096       16K
 *   Two-Phase ALT     16384      8192      4096       15K
 *   Two-Phase arb.      128      1024        24         0
 */

#include <cstdio>

#include "harness.hh"

using namespace macrosim;
using namespace macrosim::bench;

namespace
{

void
printRow(const char *name, const ComponentCounts &c)
{
    std::printf("%-26s %10llu %10llu %10llu %10llu %10llu\n", name,
                static_cast<unsigned long long>(c.transmitters),
                static_cast<unsigned long long>(c.receivers),
                static_cast<unsigned long long>(c.waveguides),
                static_cast<unsigned long long>(c.opticalSwitches),
                static_cast<unsigned long long>(c.electronicRouters));
}

} // namespace

int
main(int argc, char **argv)
{
    rejectUnknownFlags(argc, argv);
    std::printf("Table 6: Total Optical Component Counts\n");
    std::printf("%-26s %10s %10s %10s %10s %10s\n", "Network Type",
                "Tx", "Rx", "Wgs", "Switches", "Routers");

    Simulator sim;
    const MacrochipConfig cfg = simulatedConfig();
    for (const NetSel id : allNetworks) {
        auto net = makeNetworkFor(id, sim, cfg);
        printRow(netDisplayName(id).c_str(), net->componentCounts());
    }
    // The two-phase arbitration subnetwork gets its own row in the
    // paper's table.
    TwoPhaseArbitratedNetwork two_phase(sim, cfg);
    printRow("Two-Phase arbitration", two_phase.arbitrationCounts());
    return 0;
}
