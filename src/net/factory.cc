#include "net/factory.hh"

#include <array>

#include "net/circuit_switched.hh"
#include "net/hermes.hh"
#include "net/limited_pt2pt.hh"
#include "net/pt2pt.hh"
#include "net/token_ring.hh"
#include "net/two_phase.hh"
#include "sim/logging.hh"

namespace macrosim
{

namespace
{

constexpr std::array<NetSel, 7> allNetSels = {
    NetSel::TokenRing,    NetSel::CircuitSwitched,
    NetSel::PointToPoint, NetSel::LimitedPtToPt,
    NetSel::TwoPhase,     NetSel::TwoPhaseAlt,
    NetSel::Hermes,
};

} // namespace

std::string
netDisplayName(NetSel id)
{
    switch (id) {
      case NetSel::TokenRing: return "Token Ring";
      case NetSel::CircuitSwitched: return "Circuit-Switched";
      case NetSel::PointToPoint: return "Point-to-Point";
      case NetSel::LimitedPtToPt: return "Limited Point-to-Point";
      case NetSel::TwoPhase: return "2-Phase Arb.";
      case NetSel::TwoPhaseAlt: return "2-Phase Arb. ALT";
      case NetSel::Hermes: return "Hermes";
    }
    return "?";
}

std::string
netShortName(NetSel id)
{
    switch (id) {
      case NetSel::TokenRing: return "tring";
      case NetSel::CircuitSwitched: return "cswitch";
      case NetSel::PointToPoint: return "pt2pt";
      case NetSel::LimitedPtToPt: return "lpt2pt";
      case NetSel::TwoPhase: return "2phase";
      case NetSel::TwoPhaseAlt: return "2phase-alt";
      case NetSel::Hermes: return "hermes";
    }
    return "?";
}

bool
netFromString(std::string_view name, NetSel *out)
{
    for (const NetSel id : allNetSels) {
        if (name == netShortName(id) || name == netDisplayName(id)) {
            *out = id;
            return true;
        }
    }
    return false;
}

std::unique_ptr<Network>
makeNetworkFor(NetSel id, Simulator &sim, const MacrochipConfig &cfg)
{
    switch (id) {
      case NetSel::TokenRing:
        return std::make_unique<TokenRingCrossbar>(sim, cfg);
      case NetSel::CircuitSwitched:
        return std::make_unique<CircuitSwitchedTorus>(sim, cfg);
      case NetSel::PointToPoint:
        return std::make_unique<PointToPointNetwork>(sim, cfg);
      case NetSel::LimitedPtToPt:
        return std::make_unique<LimitedPointToPointNetwork>(sim, cfg);
      case NetSel::TwoPhase:
        return std::make_unique<TwoPhaseArbitratedNetwork>(sim, cfg);
      case NetSel::TwoPhaseAlt:
        return std::make_unique<TwoPhaseArbitratedNetwork>(sim, cfg,
                                                          true);
      case NetSel::Hermes:
        return std::make_unique<HermesNetwork>(sim, cfg);
    }
    panic("makeNetworkFor: bad id");
}

} // namespace macrosim
