/**
 * @file
 * Synthetic traffic patterns (paper section 5, Table 3).
 *
 *   Uniform    - destination drawn uniformly at random per packet.
 *   Transpose  - the first half of the source site-id's bits is
 *                swapped with the second half (a fixed permutation).
 *   Butterfly  - the LSB and MSB of the source site-id are swapped
 *                (fixed permutation; half the sites map to
 *                themselves, which becomes loopback traffic).
 *   Neighbor   - one of the four grid neighbors (x,y±1), (x±1,y) is
 *                chosen at random per packet (toroidal wrap at the
 *                edges so every site has four neighbors).
 *   AllToAll   - each site cycles round-robin over every other site
 *                (the heaviest-load pattern of section 6.2).
 */

#ifndef MACROSIM_WORKLOADS_PATTERNS_HH
#define MACROSIM_WORKLOADS_PATTERNS_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "arch/geometry.hh"
#include "sim/random.hh"

namespace macrosim
{

enum class TrafficPattern
{
    Uniform,
    Transpose,
    Butterfly,
    Neighbor,
    AllToAll,
};

std::string_view to_string(TrafficPattern p);

/** The fixed transpose permutation on @p bits-bit site ids. */
SiteId transposeOf(SiteId src, std::uint32_t bits);

/** The fixed butterfly permutation on @p bits-bit site ids. */
SiteId butterflyOf(SiteId src, std::uint32_t bits);

/**
 * Stateful per-source destination generator. Stateless patterns
 * ignore the internal cursor; AllToAll uses one cursor per source.
 */
class DestinationGenerator
{
  public:
    DestinationGenerator(TrafficPattern pattern,
                         const MacrochipGeometry &geom);

    TrafficPattern pattern() const { return pattern_; }

    /** Next destination for a packet from @p src. */
    SiteId next(SiteId src, Rng &rng);

  private:
    TrafficPattern pattern_;
    MacrochipGeometry geom_;
    std::uint32_t idBits_;
    std::vector<SiteId> cursor_; ///< AllToAll round-robin state.
};

} // namespace macrosim

#endif // MACROSIM_WORKLOADS_PATTERNS_HH
