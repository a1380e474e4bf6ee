/**
 * @file
 * Campaign checkpoint journal (DESIGN.md §13).
 *
 * One journal file per `macrosimctl run --journal=FILE`, reusing the
 * wire frame format on disk:
 *
 *   [header frame: magic, spec fingerprint, spec]
 *   [cell frame: CellOutcome]*
 *
 * The writer appends one cell frame per completed cell, in
 * completion order, and fflush()es after every append — a killed
 * run therefore loses at most the record that was mid-write, and
 * the reader tolerates exactly that: a truncated trailing frame
 * ends replay cleanly (everything before it is recovered).
 *
 * Doubles are stored as IEEE-754 bit patterns, so a resumed
 * campaign's result table is byte-identical to an uninterrupted
 * run's — the subsystem's acceptance criterion.
 */

#ifndef MACROSIM_SERVICE_JOURNAL_HH
#define MACROSIM_SERVICE_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "service/campaign.hh"

namespace macrosim::service
{

/** First field of the header frame; rejects non-journals early. */
constexpr std::uint32_t journalMagic = 0x4D4A524Eu; // 'MJRN'

/** Frame ids of the two journal records. */
constexpr std::uint16_t journalHeaderFrame = 192;
constexpr std::uint16_t journalCellFrame = 193;

/**
 * Append-side of a journal. Not internally synchronized: runCampaign
 * already serializes its cellDone calls under its completion mutex
 * (campaign.hh).
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter() { close(); }

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Create (truncate) @p path and write the header frame.
     * @return Whether the file opened and the header hit the OS.
     */
    bool create(const std::string &path, const CampaignSpec &spec);

    /**
     * Reopen a journal that readJournal() recovered, for appending
     * further cell records (the --resume path; the header is already
     * on disk). The file is first cut back to @p validBytes, so a
     * record left half-written by a killed run cannot swallow the
     * records appended after it.
     */
    bool openAppend(const std::string &path, std::uintmax_t validBytes);

    /** Append one completed cell, flushed before returning. */
    bool append(const CellOutcome &cell);

    void close();

  private:
    bool writeFrame(const std::vector<std::uint8_t> &frame);

    std::FILE *file_ = nullptr;
};

/** Everything recovered from one journal file. */
struct JournalContents
{
    bool valid = false;
    std::string error; ///< why valid is false (or a tail warning)
    std::uint64_t fingerprint = 0;
    CampaignSpec spec;
    /** Completed cells by index; duplicates keep the later record. */
    std::map<std::uint32_t, CellOutcome> cells;
    /** Whether a truncated trailing frame was dropped (benign). */
    bool truncatedTail = false;
    /** Length of the intact prefix: the header and every recovered
     *  cell record (what openAppend() keeps). */
    std::uintmax_t validBytes = 0;
};

/**
 * Read a journal back. valid == false means the header was
 * unusable (wrong magic/fingerprint mismatch is the *caller's*
 * check — here it means unreadable); a corrupt or truncated cell
 * record stops replay at the last good frame with valid == true.
 */
JournalContents readJournal(const std::string &path);

} // namespace macrosim::service

#endif // MACROSIM_SERVICE_JOURNAL_HH
