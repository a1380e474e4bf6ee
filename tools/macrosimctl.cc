/**
 * @file
 * macrosimctl — run a campaign in-process (DESIGN.md §13).
 *
 *   macrosimctl run --smoke --output=t.csv
 *   macrosimctl run --smoke --journal=t.mjr --output=t.csv
 *   macrosimctl run --smoke --journal=t.mjr --resume --output=t.csv
 *
 * With --journal the journal starts with the table's header lines
 * and every finished row is appended (and flushed) to it as the
 * table prints it, so a run killed part-way continues with --resume:
 * only the cells missing from the journal run again, their rows are
 * spliced in verbatim, and the table is byte-identical to an
 * uninterrupted run's. --resume refuses a journal that is unreadable
 * or whose header differs from the one the campaign flags produce,
 * leaving the file untouched.
 */

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "flags.hh"
#include "harness.hh"
#include "service/campaign.hh"
#include "service/journal.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"

using namespace macrosim;
using namespace macrosim::bench;
using namespace macrosim::service;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: macrosimctl run [campaign flags] [--jobs=N] "
        "[--output=FILE]\n"
        "                       [--journal=FILE [--resume]] "
        "[--exit-after-cells=N]\n"
        "campaign flags: --smoke --kind=injector|matrix "
        "--patterns=... --networks=... --loads=... --warmup-ns=N "
        "--window-ns=N --instr=N --workloads=... --seed=N\n"
        "  --journal=FILE          append every finished cell to "
        "FILE\n"
        "  --resume                continue the campaign journaled "
        "in FILE\n"
        "  --exit-after-cells=N    _Exit(42) after the Nth journaled "
        "cell (test hook)\n");
}

int
cmdRun(int argc, char **argv)
{
    setQuiet(true);
    installSweepSignalHandlers();
    std::string output;
    stripValueFlag(argc, argv, "output", &output);
    std::string journal;
    const bool journaling =
        stripValueFlag(argc, argv, "journal", &journal);
    const bool resume = stripSwitch(argc, argv, "resume");
    std::uint64_t exitAfterCells = 0;
    stripNumberFlag(argc, argv, "exit-after-cells", &exitAfterCells);
    const std::size_t jobs = stripJobsFlag(argc, argv);
    const CampaignSpec spec = campaignArgs(argc, argv);
    if (argc > 2)
        fatal("macrosimctl run: unexpected argument '", argv[2], "'");
    const std::string problem = spec.validate();
    if (!problem.empty())
        fatal("macrosimctl run: ", problem);
    if (!journaling && (resume || exitAfterCells > 0))
        fatal("macrosimctl run: --resume and --exit-after-cells "
              "need --journal");

    JournalWriter writer;
    JournalContents replay;
    if (resume) {
        replay = readJournal(journal, spec);
        if (!replay.valid)
            fatal("macrosimctl run --resume: ", replay.error);
        if (!replay.error.empty())
            std::fprintf(stderr, "macrosimctl: %s\n",
                         replay.error.c_str());
        if (!writer.openAppend(journal, replay.validBytes))
            fatal("macrosimctl run: cannot reopen journal '", journal,
                  "'");
        std::fprintf(stderr,
                     "macrosimctl: resuming %zu/%zu journaled cells\n",
                     replay.cells.size(), spec.cellCount());
    } else if (journaling && !writer.create(journal, spec)) {
        fatal("macrosimctl run: cannot create journal '", journal,
              "'");
    }

    std::function<void(const CellOutcome &)> cellDone;
    std::uint64_t journaled = 0;
    if (journaling) {
        cellDone = [&](const CellOutcome &cell) {
            if (!writer.append(cell))
                fatal("macrosimctl run: journal append to '", journal,
                      "' failed");
            if (++journaled == exitAfterCells)
                std::_Exit(42);
        };
    }
    const CampaignResult result =
        runCampaign(spec, jobs, cellDone,
                    resume ? &replay.cells : nullptr,
                    /*progressLog=*/true);

    const std::string table = result.table();
    if (output.empty()) {
        std::fputs(table.c_str(), stdout);
    } else {
        writeTextFile(output, table);
        std::fprintf(stderr, "macrosimctl: wrote %zu bytes to %s\n",
                     table.size(), output.c_str());
    }
    return sweepExitStatus();
}

} // namespace

int
main(int argc, char **argv)
{
    if (stripSwitch(argc, argv, "help")) {
        usage();
        return 0;
    }
    if (argc < 2 || std::string(argv[1]) != "run") {
        if (argc >= 2)
            std::fprintf(stderr, "macrosimctl: unknown command '%s'\n",
                         argv[1]);
        usage();
        return 2;
    }
    try {
        return cmdRun(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
