#include "arch/geometry.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace macrosim
{

MacrochipGeometry::MacrochipGeometry(std::uint32_t rows,
                                     std::uint32_t cols,
                                     double site_pitch_cm)
    : rows_(rows), cols_(cols), pitchCm_(site_pitch_cm)
{
    if (rows == 0 || cols == 0)
        fatal("MacrochipGeometry: grid must be non-empty");
    if (site_pitch_cm <= 0.0)
        fatal("MacrochipGeometry: site pitch must be positive");
}

SiteCoord
MacrochipGeometry::coordOf(SiteId id) const
{
    if (id >= siteCount())
        panic("coordOf: site id ", id, " out of range");
    return {id / cols_, id % cols_};
}

SiteId
MacrochipGeometry::idOf(SiteCoord c) const
{
    if (c.row >= rows_ || c.col >= cols_)
        panic("idOf: coord (", c.row, ",", c.col, ") out of range");
    return c.row * cols_ + c.col;
}

double
MacrochipGeometry::routeLengthCm(SiteId src, SiteId dst) const
{
    const SiteCoord a = coordOf(src);
    const SiteCoord b = coordOf(dst);
    const auto dr = static_cast<double>(hops(a.row, b.row));
    const auto dc = static_cast<double>(hops(a.col, b.col));
    return (dr + dc) * pitchCm_;
}

Tick
MacrochipGeometry::propagationDelay(SiteId src, SiteId dst) const
{
    return waveguideDelay(routeLengthCm(src, dst));
}

std::vector<Tick>
MacrochipGeometry::flightTimes() const
{
    // k * pitch is the length routeLengthCm() computes for a pair k
    // pitches apart: its (dr + dc) is the same small whole number.
    std::vector<Tick> table(rows_ + cols_ - 1);
    for (std::size_t k = 0; k < table.size(); ++k)
        table[k] = waveguideDelay(static_cast<double>(k) * pitchCm_);
    return table;
}

std::uint32_t
MacrochipGeometry::torusHops(SiteId src, SiteId dst) const
{
    const SiteCoord a = coordOf(src);
    const SiteCoord b = coordOf(dst);
    const std::uint32_t dr = hops(a.row, b.row);
    const std::uint32_t dc = hops(a.col, b.col);
    return std::min(dr, rows_ - dr) + std::min(dc, cols_ - dc);
}

} // namespace macrosim
