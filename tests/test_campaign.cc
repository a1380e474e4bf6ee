/**
 * @file
 * Campaign engine tests (DESIGN.md §13): deterministic cell
 * enumeration, result-table bit-identity across worker counts and
 * across journal-resume splits, journal replay under truncation and
 * corruption, refused journal headers, and cooperative cancellation.
 *
 * The journal-replay identity test here is the unit-level half of
 * the acceptance criterion; the service_e2e_smoke script repeats it
 * through a really killed and resumed `macrosimctl run`.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/campaign.hh"
#include "service/journal.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"

using namespace macrosim;
using namespace macrosim::service;

namespace
{

std::string
tempPath(const char *name)
{
    return (std::filesystem::path(testing::TempDir()) / name)
        .string();
}

TEST(Campaign, EnumerationIsDeterministicAndOrdered)
{
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    const std::vector<CampaignCell> a = enumerateCells(spec);
    const std::vector<CampaignCell> b = enumerateCells(spec);
    ASSERT_EQ(a.size(), spec.cellCount());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, i);
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].net, b[i].net);
        EXPECT_EQ(a[i].load, b[i].load);
        EXPECT_FALSE(a[i].label.empty());
    }
}

TEST(Campaign, FingerprintCoversEveryField)
{
    const CampaignSpec base = CampaignSpec::smokeInjector();
    const std::uint64_t fp = base.fingerprint();
    EXPECT_EQ(fp, CampaignSpec::smokeInjector().fingerprint());

    CampaignSpec mutated = base;
    mutated.seed += 1;
    EXPECT_NE(mutated.fingerprint(), fp);

    mutated = base;
    mutated.loads.push_back(0.5);
    EXPECT_NE(mutated.fingerprint(), fp);

    mutated = base;
    mutated.windowNs += 1;
    EXPECT_NE(mutated.fingerprint(), fp);

    mutated = base;
    std::swap(mutated.networks[0], mutated.networks[1]);
    EXPECT_NE(mutated.fingerprint(), fp);

    mutated = base;
    mutated.warmupNs += 1;
    EXPECT_NE(mutated.fingerprint(), fp);

    mutated = base;
    mutated.instructionsPerCore += 1;
    EXPECT_NE(mutated.fingerprint(), fp);

    mutated = base;
    mutated.workloads.push_back("fft");
    EXPECT_NE(mutated.fingerprint(), fp);
}

TEST(Campaign, ValidateCatchesBadSpecs)
{
    CampaignSpec spec = CampaignSpec::smokeInjector();
    EXPECT_TRUE(spec.validate().empty());

    spec.patterns = {"no-such-pattern"};
    EXPECT_FALSE(spec.validate().empty());

    spec = CampaignSpec::smokeInjector();
    spec.loads = {1.5};
    EXPECT_FALSE(spec.validate().empty());

    spec = CampaignSpec::smokeInjector();
    spec.networks.clear();
    EXPECT_FALSE(spec.validate().empty());

    spec = CampaignSpec::smokeInjector();
    spec.kind = CampaignKind::WorkloadMatrix;
    spec.workloads.clear();
    EXPECT_FALSE(spec.validate().empty());
}

TEST(Campaign, TableBitIdenticalAcrossJobCounts)
{
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    const std::string t1 = runCampaign(spec, 1).table();
    const std::string t4 = runCampaign(spec, 4).table();
    EXPECT_EQ(t1, t4);
    // %.17g doubles: equal strings means bit-equal results.
    EXPECT_NE(t1.find("fingerprint="), std::string::npos);
}

TEST(Campaign, SingleCellIsAPureFunction)
{
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    const std::vector<CampaignCell> cells = enumerateCells(spec);
    ASSERT_FALSE(cells.empty());
    const CellOutcome a = runCampaignCell(spec, cells[0]);
    const CellOutcome b = runCampaignCell(spec, cells[0]);
    EXPECT_FALSE(a.row.empty());
    EXPECT_EQ(a.row, b.row);
}

TEST(Campaign, MatrixCampaignDeterministicAcrossJobs)
{
    CampaignSpec spec;
    spec.kind = CampaignKind::WorkloadMatrix;
    spec.seed = 1; // the figure benches' root seed
    spec.workloads = {"fft"};
    spec.networks = {NetSel::TokenRing, NetSel::PointToPoint};
    spec.instructionsPerCore = 200;
    ASSERT_TRUE(spec.validate().empty()) << spec.validate();

    const CampaignResult r1 = runCampaign(spec, 1);
    const CampaignResult r3 = runCampaign(spec, 3);
    EXPECT_EQ(r1.table(), r3.table());

    // The matrix cell seed must match the figure benches' derivation
    // (deriveSeed(root, workload, display name)) so a matrix campaign
    // reproduces fig 7-10 streams bit for bit.
    ASSERT_EQ(r1.cells.size(), 2u);
    EXPECT_EQ(r1.cells[0].row.rfind("0,fft,Token Ring,", 0), 0u)
        << r1.cells[0].row;
}

TEST(Campaign, ResumeFromPriorIsBitIdentical)
{
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    const CampaignResult full = runCampaign(spec, 2);

    // Pretend the first half was journaled by a killed run.
    std::map<std::uint32_t, CellOutcome> prior;
    for (std::size_t i = 0; i < full.cells.size() / 2; ++i)
        prior[full.cells[i].index] = full.cells[i];

    const CampaignResult resumed = runCampaign(spec, 2, {}, &prior);
    EXPECT_EQ(resumed.table(), full.table());
}

TEST(Campaign, CancelBeforeStartSkipsEverything)
{
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    requestSweepInterrupt(); // what SIGINT does
    const CampaignResult r = runCampaign(spec, 2);
    clearSweepInterrupt();
    EXPECT_TRUE(r.interrupted);
    ASSERT_EQ(r.cells.size(), spec.cellCount());
    for (const CellOutcome &cell : r.cells)
        EXPECT_TRUE(cell.skipped) << cell.index;
    const std::string table = r.table();
    EXPECT_NE(table.find("SKIPPED"), std::string::npos);
    EXPECT_NE(table.find("# INTERRUPTED"), std::string::npos);
}

TEST(Campaign, HooksSeeEveryCellInCompletionOrder)
{
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    std::vector<std::uint32_t> doneIndices;
    std::atomic<int> inside{0};
    runCampaign(spec, 3, [&](const CellOutcome &cell) {
        // Serialized under the completion mutex even with 3 workers
        // racing: no two calls overlap.
        EXPECT_EQ(inside.fetch_add(1), 0);
        doneIndices.push_back(cell.index);
        inside.fetch_sub(1);
    });
    // Every cell reported exactly once.
    ASSERT_EQ(doneIndices.size(), 6u);
    std::vector<std::uint32_t> sorted = doneIndices;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint32_t i = 0; i < 6; ++i)
        EXPECT_EQ(sorted[i], i);
}

/** Run @p spec journaling its first @p stopAfter cells to @p path. */
CampaignResult
runWithJournal(const CampaignSpec &spec, const std::string &path,
               std::size_t stopAfter = SIZE_MAX)
{
    JournalWriter writer;
    EXPECT_TRUE(writer.create(path, spec));
    std::size_t written = 0;
    return runCampaign(spec, 2, [&](const CellOutcome &cell) {
        if (written < stopAfter) {
            EXPECT_TRUE(writer.append(cell));
            ++written;
        }
    });
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(Journal, RoundTripReplay)
{
    const std::string path = tempPath("roundtrip.mjr");
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    const CampaignResult full = runWithJournal(spec, path);

    // The journal is the table: its header lines, then the same rows
    // in completion order.
    const std::string text = readFile(path);
    EXPECT_TRUE(text.starts_with(tableHeader(spec)));
    EXPECT_EQ(text.size(), full.table().size());

    const JournalContents replay = readJournal(path, spec);
    ASSERT_TRUE(replay.valid) << replay.error;
    EXPECT_TRUE(replay.error.empty()) << replay.error;
    EXPECT_FALSE(replay.truncatedTail);
    EXPECT_EQ(replay.validBytes, text.size());
    ASSERT_EQ(replay.cells.size(), full.cells.size());
    for (const auto &[index, cell] : replay.cells)
        EXPECT_EQ(cell.row, full.cells[index].row);

    // Rebuilding the result purely from the journal reproduces the
    // table byte for byte (the rows are spliced in verbatim).
    const CampaignResult rebuilt =
        runCampaign(spec, 1, {}, &replay.cells);
    EXPECT_EQ(rebuilt.table(), full.table());
}

TEST(Journal, PartialJournalResumesBitIdentical)
{
    const std::string path = tempPath("partial.mjr");
    const CampaignSpec spec = CampaignSpec::smokeInjector();

    // Reference: an uninterrupted run.
    const CampaignResult reference = runCampaign(spec, 2);

    // A run that "died" after journaling two cells.
    runWithJournal(spec, path, 2);
    const JournalContents replay = readJournal(path, spec);
    ASSERT_TRUE(replay.valid) << replay.error;
    EXPECT_EQ(replay.cells.size(), 2u);

    const CampaignResult resumed =
        runCampaign(spec, 2, {}, &replay.cells);
    EXPECT_EQ(resumed.table(), reference.table());
}

TEST(Journal, TruncatedTailIsTolerated)
{
    const std::string path = tempPath("truncated.mjr");
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    runWithJournal(spec, path);

    // Chop into the last row: exactly what a kill mid-fwrite leaves
    // behind.
    const std::uintmax_t size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 7);

    const JournalContents replay = readJournal(path, spec);
    ASSERT_TRUE(replay.valid) << replay.error;
    EXPECT_TRUE(replay.error.empty()) << replay.error;
    EXPECT_TRUE(replay.truncatedTail);
    EXPECT_EQ(replay.cells.size(), spec.cellCount() - 1);
    // The intact prefix ends at the last newline.
    EXPECT_EQ(replay.validBytes,
              readFile(path).rfind('\n') + 1);
}

TEST(Journal, ReopenCutsATornTail)
{
    const std::string path = tempPath("torn.mjr");
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    const CampaignResult full = runWithJournal(spec, path);

    // A run killed mid-fwrite of its last row.
    const std::uintmax_t size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 7);
    const JournalContents torn = readJournal(path, spec);
    ASSERT_TRUE(torn.valid) << torn.error;
    ASSERT_TRUE(torn.truncatedTail);
    ASSERT_EQ(torn.cells.size(), spec.cellCount() - 1);

    // Resume: the lost cell re-runs and is appended after the cut, so
    // the next reader sees every cell and no torn row.
    {
        JournalWriter writer;
        ASSERT_TRUE(writer.openAppend(path, torn.validBytes));
        const CampaignResult resumed = runCampaign(
            spec, 2,
            [&writer](const CellOutcome &cell) {
                EXPECT_TRUE(writer.append(cell));
            },
            &torn.cells);
        EXPECT_EQ(resumed.table(), full.table());
    }
    EXPECT_EQ(readFile(path).back(), '\n');
    const JournalContents replay = readJournal(path, spec);
    ASSERT_TRUE(replay.valid) << replay.error;
    EXPECT_FALSE(replay.truncatedTail);
    ASSERT_EQ(replay.cells.size(), spec.cellCount());
    EXPECT_EQ(runCampaign(spec, 1, {}, &replay.cells).table(),
              full.table());
}

TEST(Journal, CorruptLengthStopsReplayKeepingPriorCells)
{
    // A complete row whose leading index does not parse, or is not
    // below the cell count, stops replay just before it.
    const std::string path = tempPath("corrupt.mjr");
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    runWithJournal(spec, path);
    const std::string text = readFile(path);

    // The fourth row starts after two header lines and three rows.
    std::size_t fourth = 0;
    for (int line = 0; line < 5; ++line)
        fourth = text.find('\n', fourth) + 1;
    const std::size_t comma = text.find(',', fourth);

    for (const char *bad :
         {"x", "", "-1", "3x", "6", "99", "4294967296"}) {
        writeFile(path,
                  text.substr(0, fourth) + bad + text.substr(comma));
        const JournalContents replay = readJournal(path, spec);
        ASSERT_TRUE(replay.valid) << bad; // header + earlier rows
        EXPECT_TRUE(replay.truncatedTail) << bad;
        EXPECT_FALSE(replay.error.empty()) << bad;
        EXPECT_EQ(replay.cells.size(), 3u) << bad;
        EXPECT_EQ(replay.validBytes, fourth) << bad;
    }
}

TEST(Journal, ForeignOrCorruptHeaderIsRefused)
{
    const std::string path = tempPath("foreign.mjr");
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    runWithJournal(spec, path, 2);
    const std::string text = readFile(path);
    const std::size_t headerBytes = tableHeader(spec).size();

    const auto refused = [&](const std::string &bytes) {
        writeFile(path, bytes);
        const JournalContents replay = readJournal(path, spec);
        return !replay.valid && !replay.error.empty()
               && replay.cells.empty();
    };

    // One bit flipped anywhere in the header lines.
    for (std::size_t pos = 0; pos < headerBytes; ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = text;
            flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
            EXPECT_TRUE(refused(flipped))
                << "byte " << pos << " bit " << bit;
        }
    }

    EXPECT_TRUE(refused(""));

    // The header frame of a journal in the binary frame format that
    // preceded the text format (length 80, version 1.0, frame id
    // 192, magic "MJRN", then this campaign's fingerprint and spec).
    static const unsigned char binaryHeader[] = {
        0x50, 0x00, 0x00, 0x00, 0x00, 0x01, 0xc0, 0x00, 0x4e, 0x52,
        0x4a, 0x4d, 0x11, 0x63, 0xbb, 0x82, 0x78, 0x7f, 0xc1, 0x4f,
        0x00, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
        0x07, 0x75, 0x6e, 0x69, 0x66, 0x6f, 0x72, 0x6d, 0x03, 0x00,
        0x02, 0x04, 0x02, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x84,
        0x3f, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x94, 0x3f, 0xc8,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x58, 0x02, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x07, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00,
    };
    EXPECT_TRUE(refused(
        std::string(std::begin(binaryHeader), std::end(binaryHeader))));

    // A journal written for seed + 1: the error quotes both campaign
    // lines, so both fingerprints.
    CampaignSpec other = spec;
    other.seed += 1;
    const std::string otherHeader = tableHeader(other);
    EXPECT_TRUE(refused(otherHeader + text.substr(headerBytes)));
    const std::string error = readJournal(path, spec).error;
    for (const std::string &header : {otherHeader, tableHeader(spec)}) {
        const std::string firstLine = header.substr(0, header.find('\n'));
        EXPECT_NE(error.find(firstLine), std::string::npos) << error;
    }
}

TEST(Journal, NonJournalFileIsRejected)
{
    const std::string path = tempPath("not_a_journal.mjr");
    writeFile(path, "this is not a journal at all, sorry");
    const JournalContents replay =
        readJournal(path, CampaignSpec::smokeInjector());
    EXPECT_FALSE(replay.valid);
    EXPECT_FALSE(replay.error.empty());
}

TEST(Journal, MissingFileIsInvalid)
{
    const JournalContents replay =
        readJournal(tempPath("does_not_exist.mjr"),
                    CampaignSpec::smokeInjector());
    EXPECT_FALSE(replay.valid);
    EXPECT_FALSE(replay.error.empty());
}

TEST(Journal, AppendAfterReopenExtendsTheSameJournal)
{
    const std::string path = tempPath("reopen.mjr");
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    const CampaignResult full = runCampaign(spec, 2);

    // First process: header + half the cells.
    {
        JournalWriter writer;
        ASSERT_TRUE(writer.create(path, spec));
        for (std::size_t i = 0; i < 3; ++i)
            ASSERT_TRUE(writer.append(full.cells[i]));
    }
    // Resumed process: append the rest.
    {
        const JournalContents first = readJournal(path, spec);
        ASSERT_TRUE(first.valid) << first.error;
        JournalWriter writer;
        ASSERT_TRUE(writer.openAppend(path, first.validBytes));
        for (std::size_t i = 3; i < full.cells.size(); ++i)
            ASSERT_TRUE(writer.append(full.cells[i]));
    }

    // Appended in index order, the journal is the table itself.
    EXPECT_EQ(readFile(path), full.table());
    const JournalContents replay = readJournal(path, spec);
    ASSERT_TRUE(replay.valid) << replay.error;
    EXPECT_EQ(replay.cells.size(), full.cells.size());
    const CampaignResult rebuilt =
        runCampaign(spec, 1, {}, &replay.cells);
    EXPECT_EQ(rebuilt.table(), full.table());
}

TEST(Campaign, NetNamesRoundTripThroughParser)
{
    const NetSel all[] = {NetSel::TokenRing,  NetSel::CircuitSwitched,
                          NetSel::PointToPoint, NetSel::LimitedPtToPt,
                          NetSel::TwoPhase,   NetSel::TwoPhaseAlt,
                          NetSel::Hermes};
    for (const NetSel id : all) {
        NetSel back;
        ASSERT_TRUE(netFromString(netShortName(id), &back))
            << netShortName(id);
        EXPECT_EQ(back, id);
        ASSERT_TRUE(netFromString(netDisplayName(id), &back));
        EXPECT_EQ(back, id);
    }
    NetSel out;
    EXPECT_FALSE(netFromString("no-such-network", &out));
}

} // namespace
