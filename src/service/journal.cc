#include "service/journal.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

namespace macrosim::service
{

bool
JournalWriter::create(const std::string &path, const CampaignSpec &spec)
{
    close();
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        return false;

    BinSerializer body;
    body.u32(journalMagic);
    body.u64(spec.fingerprint());
    spec.encode(body);
    return writeFrame(encodeFrame(journalHeaderFrame, body));
}

bool
JournalWriter::openAppend(const std::string &path,
                          std::uintmax_t validBytes)
{
    close();
    std::error_code ec;
    std::filesystem::resize_file(path, validBytes, ec);
    if (ec)
        return false;
    file_ = std::fopen(path.c_str(), "ab");
    return file_ != nullptr;
}

bool
JournalWriter::append(const CellOutcome &cell)
{
    if (file_ == nullptr)
        return false;
    BinSerializer body;
    cell.encode(body);
    return writeFrame(encodeFrame(journalCellFrame, body));
}

void
JournalWriter::close()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

bool
JournalWriter::writeFrame(const std::vector<std::uint8_t> &frame)
{
    if (std::fwrite(frame.data(), 1, frame.size(), file_)
        != frame.size())
        return false;
    // Flush to the OS: a run killed an instant later loses only a
    // record that never finished fwrite, which the reader drops.
    return std::fflush(file_) == 0;
}

JournalContents
readJournal(const std::string &path)
{
    JournalContents out;

    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        out.error = std::string("cannot open '") + path
                    + "': " + std::strerror(errno);
        return out;
    }

    FrameReader reader;
    char buf[1 << 16];
    std::size_t n = 0;
    std::uintmax_t fileBytes = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
        reader.feed(buf, n);
        fileBytes += n;
    }
    std::fclose(file);

    bool sawHeader = false;
    for (;;) {
        Frame frame;
        std::string err;
        const FrameReader::Status st = reader.next(&frame, &err);
        if (st == FrameReader::Status::NeedMore) {
            out.truncatedTail = reader.buffered() > 0;
            break;
        }
        if (st == FrameReader::Status::Bad) {
            // Corruption mid-file: keep everything before it.
            out.error = "journal corrupt after "
                        + std::to_string(out.cells.size())
                        + " cells: " + err;
            out.truncatedTail = true;
            break;
        }
        if (!sawHeader) {
            if (frame.id != journalHeaderFrame) {
                out.error = "not a campaign journal (first frame id "
                            + std::to_string(frame.id) + ")";
                return out;
            }
            BinDeserializer d(frame.body);
            if (d.u32() != journalMagic) {
                out.error = "bad journal magic";
                return out;
            }
            out.fingerprint = d.u64();
            if (!out.spec.decode(d) || !d.ok()) {
                out.error = "journal header spec undecodable";
                return out;
            }
            sawHeader = true;
            out.validBytes = fileBytes - reader.buffered();
            continue;
        }
        if (frame.id != journalCellFrame) {
            out.error = "unexpected journal frame id "
                        + std::to_string(frame.id);
            out.truncatedTail = true;
            break;
        }
        BinDeserializer d(frame.body);
        CellOutcome cell;
        if (!cell.decode(d)) {
            out.error = "cell record undecodable after "
                        + std::to_string(out.cells.size())
                        + " cells";
            out.truncatedTail = true;
            break;
        }
        out.cells[cell.index] = std::move(cell);
        out.validBytes = fileBytes - reader.buffered();
    }

    if (!sawHeader) {
        if (out.error.empty())
            out.error = "journal has no header frame";
        return out;
    }
    out.valid = true;
    return out;
}

} // namespace macrosim::service
