/**
 * @file
 * Campaign checkpoint journal (DESIGN.md §13).
 *
 * One text file per `macrosimctl run --journal=FILE`: the campaign's
 * tableHeader() lines, then one finished row per line in completion
 * order, each exactly as CampaignResult::table() prints it.
 *
 * The writer fflush()es after every row, so a killed run loses at
 * most the row that was mid-write, and the reader drops exactly
 * that: a last line with no newline. A resumed run splices the
 * journaled rows into its table verbatim, which is why its table is
 * byte-identical to an uninterrupted run's — the subsystem's
 * acceptance criterion.
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
     * Create (truncate) @p path and write the header lines.
     * @return Whether the file opened and the header hit the OS.
     */
    bool create(const std::string &path, const CampaignSpec &spec);

    /**
     * Reopen a journal that readJournal() recovered, for appending
     * further rows (the --resume path; the header is already on
     * disk). The file is first cut back to @p validBytes, so a row
     * left half-written by a killed run cannot run into the rows
     * appended after it.
     */
    bool openAppend(const std::string &path, std::uintmax_t validBytes);

    /** Append one finished cell's row, flushed before returning. */
    bool append(const CellOutcome &cell);

    void close();

  private:
    bool write(const std::string &text);

    std::FILE *file_ = nullptr;
};

/** Everything recovered from one journal file. */
struct JournalContents
{
    bool valid = false;
    std::string error; ///< why valid is false (or why replay stopped)
    /** Journaled rows by cell index; duplicates keep the later row. */
    std::map<std::uint32_t, CellOutcome> cells;
    /** Whether bytes after the last recovered row were dropped: a
     *  torn last line (benign) or a row with a bad index. */
    bool truncatedTail = false;
    /** Length of the intact prefix: the header and every recovered
     *  row (what openAppend() keeps). */
    std::uintmax_t validBytes = 0;
};

/**
 * Read back a journal written for @p spec. valid == false means the
 * file is missing or unreadable or does not start with
 * tableHeader(spec); the error then quotes the first header line
 * that differs, the journal's and the campaign's. With a valid
 * header, replay stops at a last line with no newline or at the
 * first line whose leading index does not parse or is not below the
 * cell count; the rows before it are kept.
 */
JournalContents readJournal(const std::string &path,
                            const CampaignSpec &spec);

} // namespace macrosim::service

#endif // MACROSIM_SERVICE_JOURNAL_HH
