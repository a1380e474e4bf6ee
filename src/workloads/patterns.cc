#include "workloads/patterns.hh"

#include "sim/logging.hh"

namespace macrosim
{

std::string_view
to_string(TrafficPattern p)
{
    switch (p) {
      case TrafficPattern::Uniform: return "uniform";
      case TrafficPattern::Transpose: return "transpose";
      case TrafficPattern::Butterfly: return "butterfly";
      case TrafficPattern::Neighbor: return "neighbor";
      case TrafficPattern::AllToAll: return "all-to-all";
    }
    return "?";
}

SiteId
transposeOf(SiteId src, std::uint32_t bits)
{
    const std::uint32_t half = bits / 2;
    const SiteId mask = (SiteId{1} << half) - 1;
    const SiteId low = src & mask;
    const SiteId high = src >> half;
    return (low << half) | high;
}

SiteId
butterflyOf(SiteId src, std::uint32_t bits)
{
    const SiteId lsb = src & 1;
    const SiteId msb = (src >> (bits - 1)) & 1;
    SiteId dst = src & ~((SiteId{1} << (bits - 1)) | SiteId{1});
    dst |= (lsb << (bits - 1)) | msb;
    return dst;
}

namespace
{

std::uint32_t
log2Exact(std::uint32_t n)
{
    std::uint32_t bits = 0;
    while ((1u << bits) < n)
        ++bits;
    return bits;
}

} // namespace

DestinationGenerator::DestinationGenerator(TrafficPattern pattern,
                                           const MacrochipGeometry &geom)
    : pattern_(pattern), geom_(geom),
      idBits_(log2Exact(geom.siteCount())),
      cursor_(geom.siteCount(), 0)
{
    if ((1u << idBits_) != geom_.siteCount()
        && (pattern == TrafficPattern::Transpose
            || pattern == TrafficPattern::Butterfly)) {
        fatal("DestinationGenerator: ", to_string(pattern),
              " needs a power-of-two site count, got ",
              geom_.siteCount());
    }
}

SiteId
DestinationGenerator::next(SiteId src, Rng &rng)
{
    switch (pattern_) {
      case TrafficPattern::Uniform:
        return static_cast<SiteId>(rng.below(geom_.siteCount()));

      case TrafficPattern::Transpose:
        return transposeOf(src, idBits_);

      case TrafficPattern::Butterfly:
        return butterflyOf(src, idBits_);

      case TrafficPattern::Neighbor: {
        const SiteCoord c = geom_.coordOf(src);
        const std::uint32_t rows = geom_.rows();
        const std::uint32_t cols = geom_.cols();
        switch (rng.below(4)) {
          case 0:
            return geom_.idOf({c.row, (c.col + 1) % cols});
          case 1:
            return geom_.idOf({c.row, (c.col + cols - 1) % cols});
          case 2:
            return geom_.idOf({(c.row + 1) % rows, c.col});
          default:
            return geom_.idOf({(c.row + rows - 1) % rows, c.col});
        }
      }

      case TrafficPattern::AllToAll: {
        // Round-robin over the other sites.
        SiteId &cur = cursor_[src];
        cur = (cur + 1) % geom_.siteCount();
        if (cur == src)
            cur = (cur + 1) % geom_.siteCount();
        return cur;
      }
    }
    panic("DestinationGenerator: unhandled pattern");
}

} // namespace macrosim
