/**
 * @file
 * Campaign engine tests (DESIGN.md §13): deterministic cell
 * enumeration, result-table bit-identity across worker counts and
 * across journal-resume splits, journal replay under truncation and
 * corruption, and cooperative cancellation.
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
    BinSerializer sa, sb;
    a.encode(sa);
    b.encode(sb);
    EXPECT_EQ(sa.buffer(), sb.buffer());
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
    EXPECT_EQ(r1.cells[0].trace.workload, "fft");
    EXPECT_EQ(r1.cells[0].trace.network, netDisplayName(NetSel::TokenRing));
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

TEST(Journal, RoundTripReplay)
{
    const std::string path = tempPath("roundtrip.mjr");
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    const CampaignResult full = runWithJournal(spec, path);

    const JournalContents replay = readJournal(path);
    ASSERT_TRUE(replay.valid) << replay.error;
    EXPECT_FALSE(replay.truncatedTail);
    EXPECT_EQ(replay.fingerprint, spec.fingerprint());
    EXPECT_EQ(replay.spec.fingerprint(), spec.fingerprint());
    ASSERT_EQ(replay.cells.size(), full.cells.size());

    // Rebuilding the result purely from the journal reproduces the
    // table byte for byte (doubles travel as bit patterns).
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
    const JournalContents replay = readJournal(path);
    ASSERT_TRUE(replay.valid) << replay.error;
    EXPECT_GE(replay.cells.size(), 2u);
    EXPECT_LT(replay.cells.size(), spec.cellCount());

    const CampaignResult resumed =
        runCampaign(spec, 2, {}, &replay.cells);
    EXPECT_EQ(resumed.table(), reference.table());
}

TEST(Journal, TruncatedTailIsTolerated)
{
    const std::string path = tempPath("truncated.mjr");
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    runWithJournal(spec, path);

    // Chop into the last frame: exactly what a kill mid-fwrite
    // leaves behind.
    const std::uintmax_t size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 7);

    const JournalContents replay = readJournal(path);
    ASSERT_TRUE(replay.valid) << replay.error;
    EXPECT_TRUE(replay.truncatedTail);
    EXPECT_EQ(replay.cells.size(), spec.cellCount() - 1);
}

TEST(Journal, ReopenCutsATornTail)
{
    const std::string path = tempPath("torn.mjr");
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    const CampaignResult full = runWithJournal(spec, path);

    // A run killed mid-fwrite of its last record.
    const std::uintmax_t size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 7);
    const JournalContents torn = readJournal(path);
    ASSERT_TRUE(torn.valid) << torn.error;
    ASSERT_TRUE(torn.truncatedTail);
    ASSERT_EQ(torn.cells.size(), spec.cellCount() - 1);

    // Resume: the lost cell re-runs and is appended after the cut, so
    // the next reader sees every cell and no torn record.
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
    const JournalContents replay = readJournal(path);
    ASSERT_TRUE(replay.valid) << replay.error;
    EXPECT_FALSE(replay.truncatedTail);
    ASSERT_EQ(replay.cells.size(), spec.cellCount());
    EXPECT_EQ(runCampaign(spec, 1, {}, &replay.cells).table(),
              full.table());
}

TEST(Journal, CorruptLengthStopsReplayKeepingPriorCells)
{
    const std::string path = tempPath("corrupt.mjr");
    const CampaignSpec spec = CampaignSpec::smokeInjector();
    runWithJournal(spec, path);

    // Locate the last cell frame's length prefix and trash it so the
    // reader sees an impossible payload size.
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    // Frames: [u32 len][u16 ver][u16 id][body]. Walk to the last one.
    std::size_t off = 0, last = 0;
    while (off + 4 <= bytes.size()) {
        const std::uint32_t len =
            static_cast<std::uint8_t>(bytes[off])
            | (static_cast<std::uint8_t>(bytes[off + 1]) << 8)
            | (static_cast<std::uint8_t>(bytes[off + 2]) << 16)
            | (static_cast<std::uint32_t>(
                   static_cast<std::uint8_t>(bytes[off + 3]))
               << 24);
        last = off;
        off += 4 + len;
    }
    bytes[last + 3] = static_cast<char>(0x7F); // huge length
    std::ofstream outF(path, std::ios::binary | std::ios::trunc);
    outF.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size()));
    outF.close();

    const JournalContents replay = readJournal(path);
    ASSERT_TRUE(replay.valid); // header + earlier cells recovered
    EXPECT_TRUE(replay.truncatedTail);
    EXPECT_FALSE(replay.error.empty());
    EXPECT_EQ(replay.cells.size(), spec.cellCount() - 1);
}

TEST(Journal, NonJournalFileIsRejected)
{
    const std::string path = tempPath("not_a_journal.mjr");
    std::ofstream out(path, std::ios::binary);
    out << "this is not a journal at all, sorry";
    out.close();
    const JournalContents replay = readJournal(path);
    EXPECT_FALSE(replay.valid);
    EXPECT_FALSE(replay.error.empty());
}

TEST(Journal, MissingFileIsInvalid)
{
    const JournalContents replay =
        readJournal(tempPath("does_not_exist.mjr"));
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
        const JournalContents first = readJournal(path);
        ASSERT_TRUE(first.valid) << first.error;
        JournalWriter writer;
        ASSERT_TRUE(writer.openAppend(path, first.validBytes));
        for (std::size_t i = 3; i < full.cells.size(); ++i)
            ASSERT_TRUE(writer.append(full.cells[i]));
    }

    const JournalContents replay = readJournal(path);
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
