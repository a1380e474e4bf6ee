#include "service/journal.hh"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <system_error>

namespace macrosim::service
{

namespace
{

/** @p line for an error message: at most 120 bytes, bytes outside
 *  printable ASCII shown as '?'. */
std::string
quoted(std::string_view line)
{
    std::string out = "'";
    for (const char c : line.substr(0, 120))
        out += (c >= ' ' && c <= '~') ? c : '?';
    return out + "'";
}

/** Name the first line where @p text departs from @p header. */
std::string
headerMismatch(std::string_view text, std::string_view header)
{
    for (int line = 1;; ++line) {
        const std::size_t got = text.find('\n');
        const std::size_t want = header.find('\n');
        if (got == std::string_view::npos
            || text.substr(0, got) != header.substr(0, want)) {
            return "journal header line " + std::to_string(line) + " "
                   + quoted(text.substr(0, got))
                   + " does not match the campaign's "
                   + quoted(header.substr(0, want));
        }
        text.remove_prefix(got + 1);
        header.remove_prefix(want + 1);
    }
}

} // namespace

bool
JournalWriter::create(const std::string &path, const CampaignSpec &spec)
{
    close();
    file_ = std::fopen(path.c_str(), "wb");
    return file_ != nullptr && write(tableHeader(spec));
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
    return file_ != nullptr && write(cell.row + '\n');
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
JournalWriter::write(const std::string &text)
{
    if (std::fwrite(text.data(), 1, text.size(), file_) != text.size())
        return false;
    // Flush to the OS: a run killed an instant later loses only a
    // row that never finished fwrite, which the reader drops.
    return std::fflush(file_) == 0;
}

JournalContents
readJournal(const std::string &path, const CampaignSpec &spec)
{
    JournalContents out;

    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        out.error = std::string("cannot open '") + path
                    + "': " + std::strerror(errno);
        return out;
    }
    std::string text;
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, n);
    std::fclose(file);

    const std::string header = tableHeader(spec);
    if (text.compare(0, header.size(), header) != 0) {
        out.error = headerMismatch(text, header);
        return out;
    }
    out.valid = true;
    out.validBytes = header.size();

    while (out.validBytes < text.size()) {
        const std::size_t eol = text.find('\n', out.validBytes);
        if (eol == std::string::npos) {
            // A row torn by a kill mid-fwrite: drop it.
            out.truncatedTail = true;
            break;
        }
        const std::string_view row(text.data() + out.validBytes,
                                   eol - out.validBytes);
        const char *end = row.data() + row.size();
        std::uint32_t index = 0;
        const auto [stop, ec] =
            std::from_chars(row.data(), end, index);
        if (ec != std::errc() || stop == end || *stop != ','
            || index >= spec.cellCount()) {
            out.error = "journal row " + quoted(row)
                        + " has no valid cell index; replay stops "
                          "before it";
            out.truncatedTail = true;
            break;
        }
        out.cells[index] = {index, false, std::string(row)};
        out.validBytes = eol + 1;
    }
    return out;
}

} // namespace macrosim::service
