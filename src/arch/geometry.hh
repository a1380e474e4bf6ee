/**
 * @file
 * Macrochip physical geometry (paper section 3, figure 1).
 *
 * The macrochip is a rows x cols array of sites on an SOI routing
 * substrate. Horizontal waveguides run between rows on the bottom
 * routing layer, vertical waveguides between columns on the top layer,
 * joined by inter-layer couplers — so optical routes are Manhattan.
 * Geometry determines waveguide lengths, hence propagation delays
 * (0.1 ns/cm) and waveguide losses (0.1 dB/cm global).
 */

#ifndef MACROSIM_ARCH_GEOMETRY_HH
#define MACROSIM_ARCH_GEOMETRY_HH

#include <cstdint>
#include <vector>

#include "photonics/components.hh"
#include "sim/ticks.hh"

namespace macrosim
{

/** Dense site index in [0, rows*cols). */
using SiteId = std::uint32_t;

/** Grid position of a site. */
struct SiteCoord
{
    std::uint32_t row = 0;
    std::uint32_t col = 0;

    bool operator==(const SiteCoord &) const = default;
};

class MacrochipGeometry
{
  public:
    /**
     * @param rows Number of site rows (8 in the paper).
     * @param cols Number of site columns (8 in the paper).
     * @param site_pitch_cm Centre-to-centre site spacing. 2.5 cm
     *        reproduces the paper's scaled token round trip: a ring
     *        visiting all 64 sites is 160 cm, i.e. 16 ns at
     *        0.1 ns/cm = 80 cycles at 5 GHz.
     */
    MacrochipGeometry(std::uint32_t rows, std::uint32_t cols,
                      double site_pitch_cm = 2.5);

    std::uint32_t rows() const { return rows_; }
    std::uint32_t cols() const { return cols_; }
    std::uint32_t siteCount() const { return rows_ * cols_; }
    double sitePitchCm() const { return pitchCm_; }

    SiteCoord coordOf(SiteId id) const;
    SiteId idOf(SiteCoord c) const;

    bool
    sameRow(SiteId a, SiteId b) const
    {
        return coordOf(a).row == coordOf(b).row;
    }

    bool
    sameCol(SiteId a, SiteId b) const
    {
        return coordOf(a).col == coordOf(b).col;
    }

    /** Manhattan waveguide route length between two sites, in cm. */
    double routeLengthCm(SiteId src, SiteId dst) const;

    /** Optical propagation delay along the Manhattan route. */
    Tick propagationDelay(SiteId src, SiteId dst) const;

    /**
     * Flight time by Manhattan distance: entry k is the delay
     * propagationDelay() gives a pair k site pitches apart, for k in
     * [0, rows + cols - 1). Tables of per-pair channels index it
     * instead of evaluating every pair's route.
     */
    std::vector<Tick> flightTimes() const;

    /** Distance between two row (or column) indices, in pitches. */
    static std::uint32_t
    hops(std::uint32_t a, std::uint32_t b)
    {
        return a > b ? a - b : b - a;
    }

    /** Propagation delay for a waveguide of the given length. */
    static Tick
    waveguideDelay(double cm)
    {
        return nsToTicks(cm * propagationNsPerCm);
    }

    /** Length of a serpentine ring visiting every site once, in cm. */
    double
    ringLengthCm() const
    {
        return pitchCm_ * static_cast<double>(siteCount());
    }

    /** Delay for a token to traverse the full ring. */
    Tick
    ringRoundTrip() const
    {
        return waveguideDelay(ringLengthCm());
    }

    /** Ring (token) propagation time between consecutive sites. */
    Tick
    ringHopDelay() const
    {
        return waveguideDelay(pitchCm_);
    }

    /** Torus hop count between two sites with wraparound XY routing. */
    std::uint32_t torusHops(SiteId src, SiteId dst) const;

    /** Worst-case Manhattan route length on this grid, in cm. */
    double
    worstCaseRouteCm() const
    {
        return pitchCm_ * static_cast<double>((rows_ - 1) + (cols_ - 1));
    }

  private:
    std::uint32_t rows_;
    std::uint32_t cols_;
    double pitchCm_;
};

} // namespace macrosim

#endif // MACROSIM_ARCH_GEOMETRY_HH
