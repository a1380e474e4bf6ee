/**
 * @file
 * Unit and property tests for BusyResource and OpticalChannel: the
 * busy-until scheduling primitives underneath every topology.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "net/channel.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace
{

using namespace macrosim;

TEST(BusyResource, StartsIdle)
{
    BusyResource r;
    EXPECT_EQ(r.busyUntil(), 0u);
    EXPECT_EQ(r.nextFree(100), 100u);
}

TEST(BusyResource, BackToBackReservationsQueue)
{
    BusyResource r;
    EXPECT_EQ(r.reserve(0, 10), 0u);
    EXPECT_EQ(r.reserve(0, 10), 10u);
    EXPECT_EQ(r.reserve(5, 10), 20u);
    EXPECT_EQ(r.busyUntil(), 30u);
}

TEST(BusyResource, IdleGapStartsAtEarliest)
{
    BusyResource r;
    r.reserve(0, 10);
    EXPECT_EQ(r.reserve(50, 5), 50u);
    EXPECT_EQ(r.busyUntil(), 55u);
}

TEST(OpticalChannel, BandwidthFromWavelengths)
{
    // Each 20 Gb/s wavelength contributes 2.5 B/ns.
    EXPECT_DOUBLE_EQ(OpticalChannel(1, 0).bandwidthBytesPerNs(), 2.5);
    EXPECT_DOUBLE_EQ(OpticalChannel(2, 0).bandwidthBytesPerNs(), 5.0);
    EXPECT_DOUBLE_EQ(OpticalChannel(16, 0).bandwidthBytesPerNs(),
                     40.0);
    EXPECT_DOUBLE_EQ(OpticalChannel(128, 0).bandwidthBytesPerNs(),
                     320.0);
}

TEST(OpticalChannel, KnownSerializationTimes)
{
    // The paper's channel widths on a 64 B cache line:
    EXPECT_EQ(OpticalChannel(2, 0).serialization(64), 12800u);
    EXPECT_EQ(OpticalChannel(8, 0).serialization(64), 3200u);
    EXPECT_EQ(OpticalChannel(16, 0).serialization(64), 1600u);
    EXPECT_EQ(OpticalChannel(128, 0).serialization(64), 200u);
}

TEST(OpticalChannel, SerializationNeverZero)
{
    // Even one byte on the widest channel takes at least one tick.
    EXPECT_GT(OpticalChannel(1024, 0).serialization(1), 0u);
}

TEST(OpticalChannel, TransmitAddsPropagation)
{
    OpticalChannel ch(2, 250);
    EXPECT_EQ(ch.transmit(0, 64), 12800u + 250u);
    // The next packet queues behind the first's serialization, not
    // its propagation (the wire is a pipeline).
    EXPECT_EQ(ch.transmit(0, 64), 2u * 12800u + 250u);
}

TEST(OpticalChannel, TransmitFromReportsStart)
{
    OpticalChannel ch(2, 100);
    Tick start = 999;
    ch.transmitFrom(40, 64, start);
    EXPECT_EQ(start, 40u);
    ch.transmitFrom(40, 64, start);
    EXPECT_EQ(start, 40u + 12800u);
}

/** Property sweep: serialization is exact, monotone and additive. */
class SerializationProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>>
{
};

TEST_P(SerializationProperty, MatchesClosedForm)
{
    const auto [lambdas, bytes_i] = GetParam();
    const auto bytes = static_cast<std::uint32_t>(bytes_i);
    OpticalChannel ch(lambdas, 0);
    const Tick t = ch.serialization(bytes);
    // Exact rational: bytes*8 bits / (lambdas*20 Gb/s), in ps,
    // rounded up.
    const std::uint64_t num = std::uint64_t{bytes} * 8 * 1000;
    const std::uint64_t den = std::uint64_t{lambdas} * 20;
    EXPECT_EQ(t, (num + den - 1) / den);
    // Monotone in size, antitone in width.
    EXPECT_GE(ch.serialization(bytes + 8), t);
    if (lambdas > 1) {
        EXPECT_LE(t, OpticalChannel(lambdas - 1, 0)
                         .serialization(bytes));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerializationProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 8u, 16u, 32u, 128u),
                       ::testing::Values(1, 8, 64, 72, 1024, 4096)));

TEST(OpticalChannel, RejectsWidthOrFlightTimeItsFieldsCannotHold)
{
    // 24 bytes (static_assert in channel.hh): a 15-bit width, a 32-bit
    // flight time. Values past either are an error, not a wrap.
    EXPECT_THROW(OpticalChannel(OpticalChannel::maxWavelengths + 1, 0),
                 FatalError);
    EXPECT_THROW(OpticalChannel(0, 0), FatalError);
    EXPECT_THROW(OpticalChannel(2, OpticalChannel::maxPropagation + 1),
                 FatalError);

    OpticalChannel ch(OpticalChannel::maxWavelengths,
                      OpticalChannel::maxPropagation);
    EXPECT_EQ(ch.wavelengths(), 0x7fffu);
    EXPECT_EQ(ch.activeWavelengths(), 0x7fffu);
    EXPECT_EQ(ch.propagation(), 0xffffffffu);
    // The down bit shares the width's word without touching it.
    ch.setDown(true);
    EXPECT_TRUE(ch.down());
    EXPECT_EQ(ch.wavelengths(), 0x7fffu);
    ch.maskWavelengths(1u << 20);
    EXPECT_EQ(ch.activeWavelengths(), 0x7fffu);
    ch.setDown(false);
    EXPECT_FALSE(ch.down());
    EXPECT_EQ(ch.wavelengths(), 0x7fffu);
    EXPECT_EQ(ch.transmit(0, 1), ch.serialization(1) + 0xffffffffull);
}

TEST(OpticalChannel, FifoOrderUnderRandomArrivals)
{
    OpticalChannel ch(8, 500);
    Rng rng(3);
    Tick prev_arrival = 0;
    Tick t = 0;
    for (int i = 0; i < 500; ++i) {
        t += rng.below(4000);
        const Tick arrival = ch.transmit(
            t, static_cast<std::uint32_t>(8 + rng.below(128)));
        EXPECT_GT(arrival, prev_arrival);
        prev_arrival = arrival;
    }
}

} // namespace
