/**
 * @file
 * The network selector and factory: one name per topology, shared by
 * the benches and the tests, so "Token Ring" means the same
 * constructor everywhere.
 */

#ifndef MACROSIM_NET_FACTORY_HH
#define MACROSIM_NET_FACTORY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "net/network.hh"

namespace macrosim
{

/**
 * The paper's five architectures, the ALT arbitration variant, and
 * the hermes extension. The values seed the pinned storm digests of
 * ChannelFifos.SaturatedStormsMatchParentDigests; never renumber
 * them.
 */
enum class NetSel : std::uint8_t
{
    TokenRing = 0,
    CircuitSwitched = 1,
    PointToPoint = 2,
    LimitedPtToPt = 3,
    TwoPhase = 4,
    TwoPhaseAlt = 5,
    Hermes = 6,
};

/** Display name, as printed in every figure/table ("Token Ring"). */
std::string netDisplayName(NetSel id);

/** Short flag-friendly name ("tring", "pt2pt", "2phase-alt"…). */
std::string netShortName(NetSel id);

/** Parse either the short or the display name. */
bool netFromString(std::string_view name, NetSel *out);

/** Construct the selected topology. */
std::unique_ptr<Network> makeNetworkFor(NetSel id, Simulator &sim,
                                        const MacrochipConfig &cfg);

} // namespace macrosim

#endif // MACROSIM_NET_FACTORY_HH
