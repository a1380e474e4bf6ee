/**
 * @file
 * Regenerates Table 1 (optical component properties) and the
 * section 2 link-budget arithmetic: 17 dB un-switched link loss,
 * 0 dBm launch, -21 dBm sensitivity, 4 dB margin.
 */

#include <cstdio>
#include <string>

#include "flags.hh"
#include "photonics/link_budget.hh"

using namespace macrosim;

int
main(int argc, char **argv)
{
    bench::rejectUnknownFlags(argc, argv);
    std::printf("Table 1: Optical Component Properties\n");
    std::printf("%-22s %14s %12s %12s\n", "Component", "Energy",
                "Static (mW)", "Loss (dB)");
    const Component rows[] = {
        Component::Modulator,       Component::OpxcCoupler,
        Component::WaveguideLocal,  Component::WaveguideGlobal,
        Component::DropFilterPass,  Component::DropFilterDrop,
        Component::Multiplexer,     Component::Receiver,
        Component::Switch,          Component::Laser,
        Component::ModulatorOff,    Component::InterLayerCoupler,
    };
    for (const Component c : rows) {
        const ComponentProperties &p = properties(c);
        std::printf("%-22s %9.1f fJ/b %12.2f %12.2f\n",
                    std::string(p.name).c_str(), p.dynamicEnergy.value,
                    p.staticPower.value, p.insertionLoss.value());
    }

    const OpticalPath link = canonicalUnswitchedLink();
    std::printf("\nCanonical un-switched link:\n");
    std::printf("  total loss      %6.2f dB (paper: 17 dB)\n",
                link.totalLoss().value());
    std::printf("  received power  %6.2f dBm at 0 dBm launch\n",
                link.receivedPower().value());
    std::printf("  margin          %6.2f dB over -21 dBm sensitivity "
                "(paper: 4 dB)\n",
                link.margin().value());
    std::printf("  link closes     %s\n",
                link.closes() ? "yes" : "NO");
    return link.closes() ? 0 : 1;
}
