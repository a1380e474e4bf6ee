/**
 * @file
 * The parameter of the all-topology suites (AllNetworks in
 * test_networks.cc, NetworkStress in test_invariants.cc): every
 * network of the factory, in the suites' original case order.
 *
 * gtest prints a value parameter's raw bytes into each ctest name
 * ("TokenRing  # GetParam() = 4-byte object <02-00 00-00>"), so the
 * parameter is a 4-byte index into that order rather than the 1-byte
 * NetSel: the names of the original cases stay stable.
 */

#ifndef MACROSIM_TESTS_TOPOLOGY_PARAM_HH
#define MACROSIM_TESTS_TOPOLOGY_PARAM_HH

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/factory.hh"

namespace macrosim
{

struct TopologyCase
{
    NetSel net;
    const char *name; ///< the gtest case name
};

inline constexpr TopologyCase topologyCases[] = {
    {NetSel::PointToPoint, "PointToPoint"},
    {NetSel::LimitedPtToPt, "LimitedP2P"},
    {NetSel::TokenRing, "TokenRing"},
    {NetSel::CircuitSwitched, "CircuitSwitched"},
    {NetSel::TwoPhase, "TwoPhase"},
    {NetSel::TwoPhaseAlt, "TwoPhaseAlt"},
    {NetSel::Hermes, "Hermes"},
};

struct Topology
{
    std::uint32_t index; ///< into topologyCases

    NetSel net() const { return topologyCases[index].net; }
};

/** Every topology, for ::testing::ValuesIn(). */
inline std::vector<Topology>
allTopologies()
{
    std::vector<Topology> out;
    for (std::uint32_t i = 0; i < std::size(topologyCases); ++i)
        out.push_back(Topology{i});
    return out;
}

/** The name generator of the all-topology suites. */
inline std::string
topologyName(const ::testing::TestParamInfo<Topology> &info)
{
    return topologyCases[info.param.index].name;
}

} // namespace macrosim

#endif // MACROSIM_TESTS_TOPOLOGY_PARAM_HH
