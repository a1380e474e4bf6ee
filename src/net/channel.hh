/**
 * @file
 * Time-multiplexed link resources for packet-level simulation.
 *
 * An OpticalChannel models one logical WDM channel: a fixed bandwidth
 * (from its wavelength count) and a propagation delay. Transmissions
 * reserve back-to-back serialization slots ("busy-until" scheduling),
 * so queueing delay emerges naturally and per-channel order is FIFO.
 *
 * BusyResource is the same idea for non-channel exclusive hardware
 * (switch trees, control-network gateways, router ports).
 */

#ifndef MACROSIM_NET_CHANNEL_HH
#define MACROSIM_NET_CHANNEL_HH

#include <cstdint>

#include "photonics/components.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace macrosim
{

/** An exclusive resource scheduled with busy-until semantics. */
class BusyResource
{
  public:
    /** Earliest time the resource is idle, at or after @p earliest. */
    Tick
    nextFree(Tick earliest) const
    {
        return earliest > busyUntil_ ? earliest : busyUntil_;
    }

    /**
     * Reserve the resource for @p duration starting no earlier than
     * @p earliest. @return the actual start time.
     */
    Tick
    reserve(Tick earliest, Tick duration)
    {
        const Tick start = nextFree(earliest);
        busyUntil_ = start + duration;
        busyTicks_ += duration;
        return start;
    }

    Tick busyUntil() const { return busyUntil_; }

    /** Cumulative reserved time; busyTicks()/now is the occupancy. */
    Tick busyTicks() const { return busyTicks_; }

  private:
    Tick busyUntil_ = 0;
    Tick busyTicks_ = 0;
};

/**
 * A WDM optical channel: serialization bandwidth + flight time.
 *
 * 24 bytes: the busy-until line, a 32-bit flight time, a 15-bit width
 * with the down flag beside it, and a 16-bit active width. The point-
 * to-point topology holds one per ordered site pair (65 536 at 16x16,
 * 1.57 MB), so every byte counts; the constructor rejects a width or
 * flight time the narrow fields cannot hold.
 */
class OpticalChannel
{
  public:
    /** Widest channel the width fields hold. */
    static constexpr std::uint32_t maxWavelengths = 0x7fff;
    /** Longest flight time the 32-bit field holds, ps (~4.3 ms). */
    static constexpr Tick maxPropagation = 0xffffffffu;

    /**
     * @param wavelengths Number of 20 Gb/s wavelengths ganged into
     *        this logical channel (its data-path width), in
     *        [1, maxWavelengths].
     * @param propagation Source-to-destination flight time, at most
     *        maxPropagation.
     */
    OpticalChannel(std::uint32_t wavelengths, Tick propagation)
    {
        if (wavelengths == 0 || wavelengths > maxWavelengths) {
            fatal("OpticalChannel: width ", wavelengths,
                  " wavelengths outside [1, ", maxWavelengths, "]");
        }
        if (propagation > maxPropagation) {
            fatal("OpticalChannel: flight time ", propagation,
                  " ps exceeds the ", maxPropagation, " ps field");
        }
        propagation_ = static_cast<std::uint32_t>(propagation);
        widthDown_ = static_cast<std::uint16_t>(wavelengths);
        active_ = static_cast<std::uint16_t>(wavelengths);
    }

    std::uint32_t wavelengths() const { return widthDown_ & ~downBit; }
    Tick propagation() const { return propagation_; }

    /**
     * Wavelengths currently usable: the engineered width minus any
     * masked by the fault model. Serialization time scales with the
     * active count, so a degraded channel delivers at reduced
     * aggregate bandwidth instead of failing outright.
     */
    std::uint32_t activeWavelengths() const { return active_; }

    /**
     * Mask degraded wavelengths: keep @p active of the channel's
     * lambdas usable (clamped to [1, wavelengths()]). Restoring the
     * full count models a repair.
     */
    void
    maskWavelengths(std::uint32_t active)
    {
        active_ = static_cast<std::uint16_t>(
            active < 1 ? 1
            : active > wavelengths() ? wavelengths()
            : active);
    }

    /** Hard channel failure: a down channel carries no traffic. */
    void
    setDown(bool down)
    {
        widthDown_ = static_cast<std::uint16_t>(
            down ? widthDown_ | downBit : widthDown_ & ~downBit);
    }

    bool down() const { return (widthDown_ & downBit) != 0; }

    /** Channel bandwidth in bytes per nanosecond. */
    double
    bandwidthBytesPerNs() const
    {
        return static_cast<double>(active_)
            * bytesPerNsPerWavelength;
    }

    /** Time to clock @p bytes through the modulator bank. */
    Tick
    serialization(std::uint32_t bytes) const
    {
        // bytes / (wavelengths * 2.5 B/ns) in ps, rounded up so a
        // transfer never takes zero time.
        const std::uint64_t ps =
            (static_cast<std::uint64_t>(bytes) * 1000ull * 8ull
             + (static_cast<std::uint64_t>(active_) * 20ull) - 1)
            / (static_cast<std::uint64_t>(active_) * 20ull);
        return ps;
    }

    /**
     * Enqueue a transmission of @p bytes, starting no earlier than
     * @p earliest. @return the delivery time of the last byte at the
     * far end (start + serialization + propagation).
     */
    Tick
    transmit(Tick earliest, std::uint32_t bytes)
    {
        const Tick start = line_.reserve(earliest,
                                         serialization(bytes));
        return start + serialization(bytes) + propagation_;
    }

    /** As transmit(), but also reports when serialization started. */
    Tick
    transmitFrom(Tick earliest, std::uint32_t bytes, Tick &start_out)
    {
        const Tick start = line_.reserve(earliest,
                                         serialization(bytes));
        start_out = start;
        return start + serialization(bytes) + propagation_;
    }

    Tick busyUntil() const { return line_.busyUntil(); }

    /** Cumulative serialization time carried by this channel. */
    Tick busyTicks() const { return line_.busyTicks(); }

  private:
    /** The down flag's bit in widthDown_, above the 15-bit width. */
    static constexpr std::uint16_t downBit = 0x8000;

    BusyResource line_;
    std::uint32_t propagation_;
    /** Engineered width, and the down flag in bit 15: one word the
     *  constructor writes whole (a bit-field would cost a
     *  read-modify-write per channel built). */
    std::uint16_t widthDown_;
    std::uint16_t active_;
};

static_assert(sizeof(OpticalChannel) == 24,
              "OpticalChannel is a 24-byte record: per-pair channel "
              "arrays are sized by it");

} // namespace macrosim

#endif // MACROSIM_NET_CHANNEL_HH
