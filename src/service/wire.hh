/**
 * @file
 * Compact binary serialization and framing for the campaign journal
 * (DESIGN.md §13).
 *
 * Layout rules, chosen for bit-exactness and cross-version safety:
 *
 *  - All fixed-width integers are little-endian, written byte by
 *    byte (no memcpy of host-order words), so the format is
 *    identical on every host.
 *  - Unsigned counts and lengths use LEB128 varints (7 bits per
 *    byte, MSB = continuation), capped at 10 bytes.
 *  - Strings and blobs are varint-length-prefixed. A decoder
 *    rejects any length that exceeds the bytes remaining, so a
 *    corrupted length can never trigger a huge allocation.
 *  - Doubles travel as their IEEE-754 bit pattern in a u64, so a
 *    value round-trips bit-exactly (the checkpoint/resume
 *    bit-identity guarantee rests on this).
 *
 * Framing: every journal record is one frame,
 *
 *    [u32 payload length][u16 version][u16 frame id][body]
 *
 * where the length counts everything after itself (version + id +
 * body). The version is (major << 8) | minor. A reader rejects a
 * frame whose major differs from its own; a frame with an equal or
 * newer minor may carry appended trailing fields, which old readers
 * ignore (decode what you know, skip the rest). Within one version,
 * decoders are exact: trailing bytes mean corruption.
 */

#ifndef MACROSIM_SERVICE_WIRE_HH
#define MACROSIM_SERVICE_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace macrosim::service
{

constexpr std::uint8_t protoMajor = 1;
constexpr std::uint8_t protoMinor = 0;
constexpr std::uint16_t protoVersion =
    (static_cast<std::uint16_t>(protoMajor) << 8) | protoMinor;

/** Hard ceiling on one frame's payload; larger lengths are treated
 *  as stream corruption, not as a request to buffer 4 GiB. */
constexpr std::uint32_t maxFramePayload = 64u << 20;

/**
 * Whether a peer's frame version is acceptable: same major; any
 * minor (newer minors only ever append fields).
 */
constexpr bool
versionCompatible(std::uint16_t v)
{
    return (v >> 8) == protoMajor;
}

/** Append-only binary writer. */
class BinSerializer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    /** IEEE-754 bit pattern: round-trips every double bit-exactly,
     *  including NaNs and infinities. */
    void f64(double v);

    /** LEB128 unsigned varint. */
    void
    varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            u8(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        u8(static_cast<std::uint8_t>(v));
    }

    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }

    /** Varint length + raw bytes. */
    void str(std::string_view s);

    void bytes(const void *data, std::size_t n);

    std::size_t size() const { return buf_.size(); }
    const std::uint8_t *data() const { return buf_.data(); }
    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked binary reader. Any out-of-range read latches
 * ok() == false and returns a zero value; callers may therefore
 * decode a whole record unconditionally and check ok() once.
 */
class BinDeserializer
{
  public:
    BinDeserializer(const std::uint8_t *data, std::size_t len)
        : p_(data), end_(data + len)
    {}

    explicit BinDeserializer(const std::vector<std::uint8_t> &buf)
        : BinDeserializer(buf.data(), buf.size())
    {}

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return *p_++;
    }

    std::uint16_t
    u16()
    {
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo
                                          | (std::uint16_t{u8()} << 8));
    }

    std::uint32_t
    u32()
    {
        const std::uint32_t lo = u16();
        return lo | (std::uint32_t{u16()} << 16);
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        return lo | (std::uint64_t{u32()} << 32);
    }

    double f64();

    std::uint64_t varint();

    bool boolean() { return u8() != 0; }

    std::string str();

    bool ok() const { return ok_; }

    std::size_t
    remaining() const
    {
        return static_cast<std::size_t>(end_ - p_);
    }

    bool atEnd() const { return remaining() == 0; }

    /**
     * Exact-consumption check for same-version bodies: ok() and
     * nothing left over. A newer-minor frame is allowed trailing
     * bytes; this helper is for readers that know the writer's
     * minor is their own.
     */
    bool exact() const { return ok_ && atEnd(); }

  private:
    bool
    need(std::size_t n)
    {
        if (!ok_ || static_cast<std::size_t>(end_ - p_) < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::uint8_t *p_;
    const std::uint8_t *end_;
    bool ok_ = true;
};

/** One decoded frame: version + frame id + body bytes. */
struct Frame
{
    std::uint16_t version = protoVersion;
    std::uint16_t id = 0;
    std::vector<std::uint8_t> body;
};

/**
 * Encode a full frame (length prefix + header + body) ready for a
 * journal append.
 */
std::vector<std::uint8_t> encodeFrame(std::uint16_t id,
                                      const BinSerializer &body);

/**
 * Incremental frame splitter for a byte stream that arrives in
 * arbitrary chunks (buffered file reads, journal tails).
 *
 * Bad means unrecoverable stream corruption: a payload length over
 * maxFramePayload or an incompatible major version. NeedMore at
 * end-of-input is how a journal reader tolerates a frame that was
 * mid-write when the process died.
 */
class FrameReader
{
  public:
    enum class Status
    {
        Ready,    ///< *out holds the next complete frame.
        NeedMore, ///< The buffered bytes end mid-frame.
        Bad,      ///< Corrupt stream; stop reading.
    };

    void feed(const void *data, std::size_t n);

    Status next(Frame *out, std::string *error = nullptr);

    /** Bytes buffered but not yet returned as frames. */
    std::size_t buffered() const { return buf_.size() - pos_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
};

} // namespace macrosim::service

#endif // MACROSIM_SERVICE_WIRE_HH
