/**
 * @file
 * Regenerates Table 4 (simulated macrochip configuration) and the
 * section 3 full-scale system parameters.
 */

#include <cstdio>

#include "arch/config.hh"
#include "flags.hh"

using namespace macrosim;

namespace
{

void
printConfig(const char *title, const MacrochipConfig &c)
{
    std::printf("%s\n", title);
    std::printf("  Number of sites          %u\n", c.siteCount());
    std::printf("  Cores per site           %u\n", c.coresPerSite);
    std::printf("  Threads per core         %u\n", c.threadsPerCore);
    std::printf("  Shared L2 per site       %u KB\n",
                c.l2CacheBytes / 1024);
    std::printf("  Bandwidth per site       %.0f GB/s\n",
                c.siteBandwidthBytesPerNs());
    std::printf("  Total peak bandwidth     %.2f TB/s\n",
                c.peakBandwidthTBs());
    std::printf("  Tx/Rx per site           %u / %u at 20 Gb/s\n",
                c.txPerSite, c.rxPerSite);
    std::printf("  Wavelengths/waveguide    %u\n",
                c.wavelengthsPerWaveguide);
    std::printf("  Clock                    %.1f GHz\n",
                c.clock().frequencyGhz());
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::rejectUnknownFlags(argc, argv);
    printConfig("Table 4: Simulated Macrochip Configuration",
                simulatedConfig());
    printConfig("Section 3: Full-scale 2015 target", fullScaleConfig());
    return 0;
}
