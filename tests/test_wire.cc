/**
 * @file
 * Wire-format tests for the campaign journal (DESIGN.md §13):
 * primitive round-trips (varint boundaries, bit-exact doubles
 * including NaN), incremental frame splitting under adversarial
 * chunking, corrupted/truncated-frame rejection, version-skew rules,
 * and randomized differential round-trips of the journal records
 * (CampaignSpec, CellOutcome).
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/campaign.hh"
#include "service/wire.hh"

using namespace macrosim;
using namespace macrosim::service;

namespace
{

TEST(Wire, VarintBoundaries)
{
    // Every value whose encoding length changes, plus the extremes.
    const std::uint64_t cases[] = {
        0,
        1,
        127,
        128,
        16383,
        16384,
        (1ull << 35) - 1,
        1ull << 35,
        std::numeric_limits<std::uint64_t>::max() - 1,
        std::numeric_limits<std::uint64_t>::max(),
    };
    for (const std::uint64_t v : cases) {
        BinSerializer s;
        s.varint(v);
        const std::vector<std::uint8_t> bytes_ = s.buffer();
        BinDeserializer d(bytes_);
        EXPECT_EQ(d.varint(), v);
        EXPECT_TRUE(d.exact()) << v;
    }

    // One-byte values encode in one byte; the max takes the 10-byte
    // cap exactly.
    BinSerializer small, big;
    small.varint(127);
    big.varint(std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(small.size(), 1u);
    EXPECT_EQ(big.size(), 10u);
}

TEST(Wire, VarintOverlongRejected)
{
    // Eleven continuation bytes: over the 10-byte cap.
    std::vector<std::uint8_t> bytes(11, 0x80);
    bytes.push_back(0x01);
    BinDeserializer d(bytes.data(), bytes.size());
    d.varint();
    EXPECT_FALSE(d.ok());
}

TEST(Wire, FixedWidthLittleEndian)
{
    BinSerializer s;
    s.u16(0x1122);
    s.u32(0xAABBCCDDu);
    s.u64(0x1020304050607080ull);
    const auto &b = s.buffer();
    ASSERT_EQ(b.size(), 14u);
    // Low byte first, independent of host order.
    EXPECT_EQ(b[0], 0x22);
    EXPECT_EQ(b[1], 0x11);
    EXPECT_EQ(b[2], 0xDD);
    EXPECT_EQ(b[5], 0xAA);
    EXPECT_EQ(b[6], 0x80);
    EXPECT_EQ(b[13], 0x10);

    BinDeserializer d(b);
    EXPECT_EQ(d.u16(), 0x1122);
    EXPECT_EQ(d.u32(), 0xAABBCCDDu);
    EXPECT_EQ(d.u64(), 0x1020304050607080ull);
    EXPECT_TRUE(d.exact());
}

TEST(Wire, DoubleBitExact)
{
    const double cases[] = {
        0.0,
        -0.0,
        1.0,
        -1.5,
        16.246946258161728, // a real table value
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    for (const double v : cases) {
        BinSerializer s;
        s.f64(v);
        const std::vector<std::uint8_t> bytes_ = s.buffer();
        BinDeserializer d(bytes_);
        const double back = d.f64();
        EXPECT_TRUE(d.exact());
        // Compare bit patterns, not values: NaN != NaN and
        // -0.0 == 0.0 would both fool a value comparison.
        std::uint64_t a = 0, b = 0;
        std::memcpy(&a, &v, sizeof a);
        std::memcpy(&b, &back, sizeof b);
        EXPECT_EQ(a, b);
    }
}

TEST(Wire, StringLengthOverRemainingRejected)
{
    BinSerializer s;
    s.varint(1000); // claims 1000 bytes follow
    s.u8('x');      // only one does
    const std::vector<std::uint8_t> bytes_ = s.buffer();
    BinDeserializer d(bytes_);
    const std::string out = d.str();
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(out.empty());
}

TEST(Wire, ReadPastEndLatches)
{
    BinSerializer s;
    s.u16(7);
    const std::vector<std::uint8_t> bytes_ = s.buffer();
    BinDeserializer d(bytes_);
    EXPECT_EQ(d.u16(), 7);
    EXPECT_EQ(d.u32(), 0u); // past the end: zero, not garbage
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.u8(), 0); // stays latched
    EXPECT_FALSE(d.exact());
}

TEST(Wire, FrameRoundTripByteAtATime)
{
    BinSerializer body;
    body.u64(42);
    body.str("hello frame");
    const std::vector<std::uint8_t> wire = encodeFrame(9, body);

    // Feed one byte at a time: the reader must produce exactly one
    // frame, and only once the last byte arrives.
    FrameReader reader;
    Frame frame;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        reader.feed(&wire[i], 1);
        EXPECT_EQ(reader.next(&frame), FrameReader::Status::NeedMore);
    }
    reader.feed(&wire.back(), 1);
    ASSERT_EQ(reader.next(&frame), FrameReader::Status::Ready);
    EXPECT_EQ(frame.id, 9);
    EXPECT_EQ(frame.version, protoVersion);

    BinDeserializer d(frame.body);
    EXPECT_EQ(d.u64(), 42u);
    EXPECT_EQ(d.str(), "hello frame");
    EXPECT_TRUE(d.exact());
    EXPECT_EQ(reader.next(&frame), FrameReader::Status::NeedMore);
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Wire, BackToBackFramesSplitAcrossChunks)
{
    std::vector<std::uint8_t> stream;
    for (int i = 0; i < 5; ++i) {
        BinSerializer body;
        body.u32(static_cast<std::uint32_t>(i));
        const auto f = encodeFrame(static_cast<std::uint16_t>(i), body);
        stream.insert(stream.end(), f.begin(), f.end());
    }

    // Deterministically ragged chunk sizes.
    std::mt19937_64 rng(123);
    FrameReader reader;
    std::size_t off = 0;
    int got = 0;
    while (off < stream.size()) {
        const std::size_t n =
            std::min<std::size_t>(1 + rng() % 7, stream.size() - off);
        reader.feed(&stream[off], n);
        off += n;
        Frame frame;
        while (reader.next(&frame) == FrameReader::Status::Ready) {
            BinDeserializer d(frame.body);
            EXPECT_EQ(frame.id, got);
            EXPECT_EQ(d.u32(), static_cast<std::uint32_t>(got));
            ++got;
        }
    }
    EXPECT_EQ(got, 5);
}

TEST(Wire, OversizedPayloadIsBad)
{
    BinSerializer raw;
    raw.u32(maxFramePayload + 1);
    raw.u16(protoVersion);
    raw.u16(1);
    FrameReader reader;
    reader.feed(raw.data(), raw.size());
    Frame frame;
    std::string error;
    EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::Bad);
    EXPECT_FALSE(error.empty());
}

TEST(Wire, RuntPayloadLengthIsBad)
{
    // A frame length must cover version + id (4 bytes).
    BinSerializer raw;
    raw.u32(3);
    raw.u16(protoVersion);
    raw.u16(1);
    FrameReader reader;
    reader.feed(raw.data(), raw.size());
    Frame frame;
    EXPECT_EQ(reader.next(&frame), FrameReader::Status::Bad);
}

TEST(Wire, MajorVersionMismatchIsBad)
{
    BinSerializer body;
    body.u64(1);
    std::vector<std::uint8_t> wire = encodeFrame(1, body);
    // Patch the version's major byte (little-endian u16 at offset 4:
    // minor first, major second).
    wire[5] = protoMajor + 1;
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame frame;
    std::string error;
    EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::Bad);
    EXPECT_NE(error.find("version"), std::string::npos);
}

/** Random spec with every field exercised. */
CampaignSpec
randomSpec(std::mt19937_64 &rng)
{
    CampaignSpec spec;
    spec.kind = (rng() & 1) ? CampaignKind::InjectorSweep
                            : CampaignKind::WorkloadMatrix;
    spec.seed = rng();
    const char *patterns[] = {"uniform", "hotspot", "transpose"};
    for (std::size_t i = 0; i < 1 + rng() % 3; ++i)
        spec.patterns.push_back(patterns[rng() % 3]);
    const NetSel allNets[] = {
        NetSel::TokenRing,    NetSel::CircuitSwitched,
        NetSel::PointToPoint, NetSel::LimitedPtToPt,
        NetSel::TwoPhase,     NetSel::TwoPhaseAlt,
        NetSel::Hermes};
    for (std::size_t i = 0; i < 1 + rng() % 3; ++i)
        spec.networks.push_back(allNets[rng() % 7]);
    for (std::size_t i = 0; i < 1 + rng() % 4; ++i)
        spec.loads.push_back(
            static_cast<double>(rng() % 1000) / 1000.0 + 1e-3);
    spec.warmupNs = rng() % 10000;
    spec.windowNs = 1 + rng() % 10000;
    spec.instructionsPerCore = 1 + rng() % 100000;
    const char *workloads[] = {"fft", "lu", "radix"};
    for (std::size_t i = 0; i < 1 + rng() % 3; ++i)
        spec.workloads.push_back(workloads[rng() % 3]);
    return spec;
}

bool
specEqual(const CampaignSpec &a, const CampaignSpec &b)
{
    // fingerprint() hashes every field that matters for identity;
    // re-encoding both is the byte-level check.
    BinSerializer sa, sb;
    a.encode(sa);
    b.encode(sb);
    return sa.buffer() == sb.buffer()
        && a.fingerprint() == b.fingerprint();
}

TEST(Wire, RandomizedSpecRoundTrip)
{
    std::mt19937_64 rng(20260807);
    for (int iter = 0; iter < 200; ++iter) {
        const CampaignSpec spec = randomSpec(rng);
        BinSerializer s;
        spec.encode(s);
        BinDeserializer d(s.buffer());
        CampaignSpec back;
        ASSERT_TRUE(back.decode(d));
        EXPECT_TRUE(d.exact());
        EXPECT_TRUE(specEqual(spec, back)) << "iter " << iter;
    }
}

CellOutcome
randomCell(std::mt19937_64 &rng)
{
    CellOutcome cell;
    cell.index = static_cast<std::uint32_t>(rng() % 1000);
    cell.label = "cell-" + std::to_string(rng() % 97);
    cell.kind = static_cast<std::uint8_t>(rng() & 1);
    cell.skipped = (rng() % 8) == 0;
    auto rnd = [&rng] {
        // Raw bit patterns, including NaNs/denormals.
        std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    };
    cell.injector.offeredLoadPct = rnd();
    cell.injector.meanLatencyNs = rnd();
    cell.injector.maxLatencyNs = rnd();
    cell.injector.p50LatencyNs = rnd();
    cell.injector.p99LatencyNs = rnd();
    cell.injector.deliveredBytesPerNsPerSite = rnd();
    cell.injector.deliveredPct = rnd();
    cell.injector.measuredPackets = rng();
    cell.injector.overflowPackets = rng();
    cell.injector.offeredMeasuredPct = rnd();
    cell.trace.workload = "wl-" + std::to_string(rng() % 7);
    cell.trace.network = "net-" + std::to_string(rng() % 5);
    cell.trace.runtime = rng();
    cell.trace.instructions = rng();
    cell.trace.coherenceOps = rng();
    cell.trace.opLatencyNs = rnd();
    cell.trace.totalJoules = rnd();
    cell.trace.routerJoules = rnd();
    cell.trace.cpuJoules = rnd();
    cell.trace.edp = rnd();
    return cell;
}

TEST(Wire, RandomizedCellOutcomeRoundTrip)
{
    std::mt19937_64 rng(7);
    for (int iter = 0; iter < 200; ++iter) {
        const CellOutcome cell = randomCell(rng);
        BinSerializer s;
        cell.encode(s);
        BinDeserializer d(s.buffer());
        CellOutcome back;
        ASSERT_TRUE(back.decode(d));
        EXPECT_TRUE(d.exact());
        BinSerializer s2;
        back.encode(s2);
        // Byte-identical re-encode == bit-exact doubles round-trip.
        EXPECT_EQ(s.buffer(), s2.buffer()) << "iter " << iter;
    }
}

TEST(Wire, CorruptedBodyBitsRejectedOrDetected)
{
    // Flipping any single bit of an encoded CampaignSpec (the journal
    // header body) must never crash, and must either fail an exact
    // decode or change the re-encode (i.e. corruption can't silently
    // alias the original).
    std::mt19937_64 rng(5);
    BinSerializer s;
    randomSpec(rng).encode(s);
    const std::vector<std::uint8_t> pristine = s.buffer();

    for (int iter = 0; iter < 200; ++iter) {
        std::vector<std::uint8_t> body = pristine;
        const std::size_t byte = rng() % body.size();
        body[byte] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        BinDeserializer d(body);
        CampaignSpec out;
        if (!out.decode(d) || !d.exact())
            continue; // rejected: fine
        BinSerializer again;
        out.encode(again);
        EXPECT_NE(again.buffer(), pristine);
    }
}

} // namespace
