/**
 * @file
 * Campaigns: declarative sweeps run in-process by `macrosimctl run`
 * (DESIGN.md §13).
 *
 * A *campaign* is a declarative description of a sweep: which cells
 * to run (pattern × network × load for the injector kind, workload ×
 * network for the trace-CPU matrix kind), under which root seed.
 * enumerateCells() decomposes a spec into an ordered cell list, and
 * runCampaignCell() runs one cell in its own Simulator with a seed
 * derived purely from (root seed, cell identity) via deriveSeed() —
 * the same splitmix64 derivation the figure benches use. Because
 * every cell is a pure function of the spec, a campaign's result
 * table is bit-identical across any --jobs count and across any
 * kill/--resume split (the journal stores each finished row exactly
 * as the table prints it).
 */

#ifndef MACROSIM_SERVICE_CAMPAIGN_HH
#define MACROSIM_SERVICE_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "net/factory.hh"
#include "sim/simulator.hh"
#include "workloads/packet_injector.hh"
#include "workloads/trace_cpu.hh"

namespace macrosim::service
{

// perfbench/ is frozen with the benchmark and spells these service::.
using macrosim::makeNetworkFor;
using macrosim::NetSel;
using macrosim::netDisplayName;
using macrosim::netShortName;

enum class CampaignKind : std::uint8_t
{
    InjectorSweep = 0,  ///< open-loop packet injector load points
    WorkloadMatrix = 1, ///< closed-loop trace-CPU workload × network
};

/**
 * A submittable sweep description. Everything that influences a
 * cell's result lives here, so fingerprint() identifies a campaign
 * for journal-resume compatibility checks.
 */
struct CampaignSpec
{
    CampaignKind kind = CampaignKind::InjectorSweep;
    std::uint64_t seed = 17;

    /* InjectorSweep */
    std::vector<std::string> patterns; ///< to_string(TrafficPattern)
    std::vector<NetSel> networks;
    std::vector<double> loads; ///< fraction of per-site peak (0, 1]
    std::uint64_t warmupNs = 500;
    std::uint64_t windowNs = 2500;

    /* WorkloadMatrix */
    std::uint64_t instructionsPerCore = 2000;
    std::vector<std::string> workloads; ///< workloadByName() names

    std::size_t cellCount() const;

    /** Order-sensitive content hash, printed in the table header. */
    std::uint64_t fingerprint() const;

    /**
     * Check the spec is runnable (known patterns/workloads/networks,
     * at least one cell, sane loads). @return Empty string if valid,
     * else a description of the first problem.
     */
    std::string validate() const;

    /** The small deterministic campaign behind --smoke and the
     *  service_e2e_smoke test: uniform × {tring, pt2pt, 2phase} ×
     *  {1%, 2%} with a short measurement window. */
    static CampaignSpec smokeInjector();
};

/** One decomposed unit of work, in deterministic enumeration order. */
struct CampaignCell
{
    std::uint32_t index = 0;
    std::string label;
    NetSel net = NetSel::TokenRing;
    /* InjectorSweep */
    TrafficPattern pattern = TrafficPattern::Uniform;
    double load = 0.0;
    /* WorkloadMatrix */
    std::string workload;
};

/** Decompose @p spec into its ordered cell list. */
std::vector<CampaignCell> enumerateCells(const CampaignSpec &spec);

/**
 * The result of one cell: its row of the result table, without the
 * newline. skipped marks a cell a cancelled run never executed; its
 * row then reads "<index>,<label>,SKIPPED".
 */
struct CellOutcome
{
    std::uint32_t index = 0;
    bool skipped = false;
    std::string row;
};

/**
 * The table's header lines, newline-terminated: the campaign line
 * (kind, seed, cell count, fingerprint) and the CSV column names.
 * A journal starts with the same lines.
 */
std::string tableHeader(const CampaignSpec &spec);

/** A completed (or partially completed) campaign. */
struct CampaignResult
{
    CampaignSpec spec;
    std::vector<CellOutcome> cells; ///< in cell-index order
    bool interrupted = false;

    /**
     * Render the canonical CSV result table: tableHeader() and the
     * cell rows in index order. Doubles print as %.17g, so two
     * tables are byte-identical iff the results are bit-identical —
     * the acceptance check for kill/resume runs.
     */
    std::string table() const;
};

/** Run one cell to completion and render its row (a pure function
 *  of spec + cell). */
CellOutcome runCampaignCell(const CampaignSpec &spec,
                            const CampaignCell &cell);

/**
 * Run a campaign through the SweepRunner thread pool and return the
 * assembled result (cells in index order).
 *
 * @p jobs is the worker count (0 = MACROSIM_JOBS / hardware).
 * @p cellDone, when set, sees every cell that ran, in completion
 * order: it is called from sweep worker threads but serialized under
 * one internal mutex, which is what the journal append relies on.
 * @p prior maps cell index → outcome for cells already completed
 * (journal replay on --resume); those cells are not re-run and their
 * rows are spliced into the result verbatim. The returned table is
 * bit-identical for any (jobs, prior) split of the same spec.
 * SIGINT/SIGTERM (installSweepSignalHandlers()) skip the cells that
 * have not started; running cells finish and reach @p cellDone.
 */
CampaignResult runCampaign(
    const CampaignSpec &spec, std::size_t jobs,
    const std::function<void(const CellOutcome &)> &cellDone = {},
    const std::map<std::uint32_t, CellOutcome> *prior = nullptr,
    bool progressLog = false);

} // namespace macrosim::service

#endif // MACROSIM_SERVICE_CAMPAIGN_HH
