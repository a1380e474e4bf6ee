/**
 * @file
 * Ablation: the two-phase network's open protocol parameters.
 *
 * The paper pins the 0.4 ns arbitration slot and the shared-channel
 * width but not the switch settling time, the sender-change guard,
 * or the notification message length. This sweep quantifies how the
 * figure 6 uniform saturation point moves with each: the
 * notification length is the first-order term (it sets the grant
 * rate per column manager), which is how DESIGN.md's 8 B choice
 * anchors the base design near the paper's 7.5%.
 */

#include <cstdio>

#include "harness.hh"

#include "sim/logging.hh"

using namespace macrosim;
using namespace macrosim::bench;

namespace
{

double
sustainedUniform(const TwoPhaseParams &params)
{
    Simulator sim(3);
    TwoPhaseArbitratedNetwork net(sim, simulatedConfig(), false,
                                  params);
    InjectorConfig cfg;
    cfg.load = 0.20; // deep overload for the base design
    cfg.warmup = 500 * tickNs;
    cfg.window = 2000 * tickNs;
    cfg.seed = 3;
    return runOpenLoop(sim, net, cfg).deliveredPct;
}

} // namespace

int
main(int argc, char **argv)
{
    rejectUnknownFlags(argc, argv);
    setQuiet(true);
    std::printf("Two-phase protocol-parameter ablation "
                "(uniform, sustained %% of peak)\n\n");

    std::printf("notification bytes (grant rate):\n");
    for (const std::uint32_t bytes : {4u, 8u, 16u}) {
        TwoPhaseParams p;
        p.notificationBytes = bytes;
        std::printf("  %3u B -> %6.2f%%%s\n", bytes,
                    sustainedUniform(p),
                    bytes == 8 ? "   <- DESIGN.md default" : "");
        std::fflush(stdout);
    }

    std::printf("\nswitch settling time:\n");
    for (const Tick setup_ns : {Tick{0}, Tick{1}, Tick{2}, Tick{4}}) {
        TwoPhaseParams p;
        p.switchSetup = setup_ns * tickNs;
        std::printf("  %3llu ns -> %6.2f%%%s\n",
                    static_cast<unsigned long long>(setup_ns),
                    sustainedUniform(p),
                    setup_ns == 1 ? "   <- DESIGN.md default" : "");
        std::fflush(stdout);
    }

    std::printf("\nsender-change guard:\n");
    for (const Tick guard_ns : {Tick{0}, Tick{1}, Tick{2}}) {
        TwoPhaseParams p;
        p.senderGuard = guard_ns * tickNs;
        std::printf("  %3llu ns -> %6.2f%%%s\n",
                    static_cast<unsigned long long>(guard_ns),
                    sustainedUniform(p),
                    guard_ns == 1 ? "   <- DESIGN.md default" : "");
        std::fflush(stdout);
    }
    return 0;
}
