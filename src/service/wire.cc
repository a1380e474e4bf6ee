#include "service/wire.hh"

#include <bit>
#include <cstring>

namespace macrosim::service
{

void
BinSerializer::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
BinSerializer::str(std::string_view s)
{
    varint(s.size());
    bytes(s.data(), s.size());
}

void
BinSerializer::bytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + n);
}

double
BinDeserializer::f64()
{
    return std::bit_cast<double>(u64());
}

std::uint64_t
BinDeserializer::varint()
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        const std::uint8_t byte = u8();
        if (!ok_)
            return 0;
        // The 10th byte may only contribute the top bit of a u64.
        if (shift == 63 && (byte & 0xFE) != 0) {
            ok_ = false;
            return 0;
        }
        v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0)
            return v;
    }
    ok_ = false; // 10 continuation bytes: not a valid u64 varint
    return 0;
}

std::string
BinDeserializer::str()
{
    const std::uint64_t n = varint();
    if (!ok_ || n > remaining()) {
        ok_ = false;
        return {};
    }
    std::string s(reinterpret_cast<const char *>(p_),
                  static_cast<std::size_t>(n));
    p_ += n;
    return s;
}

std::vector<std::uint8_t>
encodeFrame(std::uint16_t id, const BinSerializer &body)
{
    BinSerializer frame;
    const std::uint32_t payload =
        static_cast<std::uint32_t>(4 + body.size());
    frame.u32(payload);
    frame.u16(protoVersion);
    frame.u16(id);
    frame.bytes(body.data(), body.size());
    return frame.take();
}

void
FrameReader::feed(const void *data, std::size_t n)
{
    // Compact once the consumed prefix dominates the buffer.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + n);
}

FrameReader::Status
FrameReader::next(Frame *out, std::string *error)
{
    const std::size_t avail = buf_.size() - pos_;
    if (avail < 4)
        return Status::NeedMore;

    BinDeserializer header(buf_.data() + pos_, avail);
    const std::uint32_t payload = header.u32();
    if (payload < 4 || payload > maxFramePayload) {
        if (error)
            *error = "bad frame length " + std::to_string(payload);
        return Status::Bad;
    }
    if (avail < 4 + static_cast<std::size_t>(payload))
        return Status::NeedMore;

    const std::uint16_t version = header.u16();
    const std::uint16_t id = header.u16();
    if (!versionCompatible(version)) {
        if (error) {
            *error = "incompatible frame version "
                     + std::to_string(version >> 8) + "."
                     + std::to_string(version & 0xFF) + " (mine is "
                     + std::to_string(protoMajor) + "."
                     + std::to_string(protoMinor) + ")";
        }
        return Status::Bad;
    }

    out->version = version;
    out->id = id;
    const std::size_t body = payload - 4;
    out->body.assign(buf_.data() + pos_ + 8,
                     buf_.data() + pos_ + 8 + body);
    pos_ += 4 + payload;
    return Status::Ready;
}

} // namespace macrosim::service
