/**
 * @file
 * Regenerates Table 5 (network optical power): per-network power
 * loss factor and total laser power, derived from each topology's
 * analytic descriptor.
 *
 * Paper reference values: Token-Ring 19x / 155 W, Point-to-Point
 * 1x / 8 W, Circuit-Switched 30x / 245 W, Limited Pt-to-Pt 1x / 8 W,
 * Two-Phase data 5x / 41 W (ALT 4x / 65.5 W), arbitration 8x / 1 W.
 */

#include <cstdio>

#include "harness.hh"

using namespace macrosim;
using namespace macrosim::bench;

int
main()
{
    std::printf("Table 5: Network Optical Power\n");
    std::printf("%-26s %12s %12s %14s\n", "Network Type", "Loss Factor",
                "Laser P (W)", "10mW sources");

    Simulator sim;
    const MacrochipConfig cfg = simulatedConfig();
    for (const NetSel id : allNetworks) {
        auto net = makeNetworkFor(id, sim, cfg);
        for (const LaserPowerSpec &spec : net->opticalPower()) {
            std::printf("%-26s %11.2fx %12.1f %14llu\n",
                        spec.name.c_str(), spec.lossFactor,
                        spec.watts(),
                        static_cast<unsigned long long>(
                            spec.laserSources()));
        }
    }

    std::printf("\nTotal static power (lasers + ring tuning + switch "
                "bias):\n");
    for (const NetSel id : allNetworks) {
        auto net = makeNetworkFor(id, sim, cfg);
        std::printf("%-26s %12.1f W\n", netDisplayName(id).c_str(),
                    net->staticWatts());
    }
    return 0;
}
