/**
 * @file
 * The macrosim performance benchmark: workloads, cells and the
 * records one run of a cell leaves behind.
 *
 * A *cell* is one independent simulation (one operation of the
 * benchmark). A *workload* is a fixed list of cells; one pass over
 * it is a *batch*. The benchmark runs batches back to back from one
 * thread (a closed loop with one client) and times every call it
 * makes into the library from the outside: the constructors before a
 * cell's first event (setup), then the one call that runs the event
 * loop. Per-layer host time comes from a separate traced batch with
 * the event-loop profiler on.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/campaign.hh"
#include "sim/pdes_scheduler.hh"
#include "sim/telemetry/trace.hh"
#include "workloads/packet_injector.hh"
#include "workloads/trace_cpu.hh"

namespace perfbench
{

using macrosim::InjectorConfig;
using macrosim::InjectorResult;
using macrosim::PdesLoadReport;
using macrosim::TraceSink;
using macrosim::WorkloadSpec;
using NetSel = macrosim::service::NetSel;

/** Seed the reference digests were recorded with (the default). */
constexpr std::uint64_t defaultSeed = 1;

/** Event-loop profiler totals of one event tag. */
struct TagCost
{
    std::uint64_t count = 0;
    double wallNs = 0.0;
};

using Profile = std::map<std::string, TagCost, std::less<>>;

/** Host time in constructors before a cell's first event, ns. */
struct SetupNs
{
    double sim = 0.0;   ///< Simulator
    double net = 0.0;   ///< network factory (or PDES replica factory)
    double cpu = 0.0;   ///< TraceCpuSystem
    double fault = 0.0; ///< FaultSchedule::random + FaultInjector

    double total() const { return sim + net + cpu + fault; }
};

enum class CellKind
{
    OpenLoop,  ///< runOpenLoop on an 8x8 network
    Coherence, ///< TraceCpuSystem::run on an 8x8 network
    Pdes,      ///< runOpenLoopPdes on the 16x16 point-to-point
};

/** The inputs of one cell, all derived from the benchmark seed. */
struct CellSpec
{
    CellKind kind = CellKind::OpenLoop;
    std::string label;
    NetSel net = NetSel::PointToPoint;
    std::uint64_t seed = 1;
    /** OpenLoop and Pdes. */
    InjectorConfig traffic;
    /** OpenLoop: run under a random fault schedule with retry. */
    bool faults = false;
    /** Coherence. */
    WorkloadSpec app;
    /** Pdes: logical processes (worker threads: min(lps, nproc)). */
    std::uint32_t lps = 1;
};

struct Workload
{
    std::string name;
    std::vector<CellSpec> cells;
};

/** Everything one run of a cell produced. */
struct CellRecord
{
    std::string label;
    /** The network's stat slug ("tring", "2phase_alt", ...). */
    std::string topo;
    /** Checks the cell failed; empty when it passed. */
    std::vector<std::string> failures;
    /** Hash of the cell's exact simulated outputs. */
    std::uint64_t digest = 0;

    SetupNs setup;
    /** The call that runs the event loop, minus any setup in it. */
    double runNs = 0.0;
    /** The whole cell: setup, run, checks and teardown. */
    double cellNs = 0.0;

    std::uint64_t packets = 0; ///< packets delivered
    std::uint64_t instructions = 0;
    std::uint64_t coherenceOps = 0;

    /** Event-queue counters (not observable inside PDES runs). */
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t peakPending = 0;
    std::uint64_t batchEvents = 0;
    /** Filled on traced passes only. */
    Profile profile;

    std::uint64_t injected = 0;
    std::uint64_t dropped = 0;
    std::uint64_t retries = 0;
    std::uint64_t histOverflow = 0;
    std::uint64_t circuits = 0;
    std::uint64_t faultEvents = 0;
    std::uint64_t txnStarted = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;

    /** Open-loop and PDES measurement (p50/p99 may be +inf). */
    InjectorResult traffic;

    /** Pdes only. */
    std::uint32_t lps = 0;
    std::uint64_t crossPosts = 0;
    std::uint64_t spills = 0;
    PdesLoadReport load;
};

enum class Pass
{
    Untraced,  ///< what the end-to-end metrics are measured on
    Traced,    ///< profiler on, spans recorded
    SetupOnly, ///< constructors only, for the setup_s samples
};

/** One pass over a workload's cells. */
struct Batch
{
    std::vector<CellRecord> cells;
    double wallNs = 0.0;

    double setupNs() const;
    /** Sum of one setup component over the cells, ns. */
    double setupNs(double SetupNs::*part) const;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build a named workload's cells from @p seed. @p reduced shrinks
 * every cell (short windows, small instruction budgets) for the
 * self-test. Returns false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  bool reduced, Workload *out);

/**
 * Run every cell of @p w once. On a traced pass, spans of every cell
 * go to @p spans with the cell's batch index as its id.
 */
Batch runBatch(const Workload &w, Pass pass, TraceSink *spans);

/* ---- checks and digests (checks.cc) ---- */

/** FNV-1a over the exact bit patterns of the values fed to it. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Digest of the injector's exact outputs; excludes the histogram
 *  estimates (p50, p99, overflow count). */
void digestInjector(Digest &d, const InjectorResult &r);

/*
 * Each check appends a one-line description of every violation it
 * finds to @p out; a cell with any failure counts as failed.
 */

/** After the drain every injected packet was delivered or dropped. */
void checkDrained(std::uint64_t injected, std::uint64_t delivered,
                  std::uint64_t dropped, std::vector<std::string> &out);

/** No more packets were measured than were injected in the window. */
void checkWindow(const InjectorResult &r, const InjectorConfig &cfg,
                 const macrosim::MacrochipConfig &mc,
                 std::vector<std::string> &out);

/** Every core retired its budget and no transaction is in flight. */
void checkCoherence(const macrosim::TraceCpuResult &res,
                    const WorkloadSpec &app,
                    const macrosim::CoherenceEngine &eng,
                    const macrosim::MacrochipConfig &mc,
                    std::vector<std::string> &out);

/**
 * MOESI single-writer and directory agreement over every line the
 * directory tracks (the invariants of tests/test_invariants.cc).
 */
void checkDirectory(const macrosim::CoherenceEngine &eng,
                    std::uint32_t sites, std::vector<std::string> &out);

/** Whether two injector results are bit-identical, field by field. */
bool bitIdentical(const InjectorResult &a, const InjectorResult &b);

/** "%016llx". */
std::string hex(std::uint64_t v);

/* ---- metrics and host metadata (report.cc) ---- */

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** The batches one run of the benchmark made. */
struct Measured
{
    std::vector<Batch> untraced;
    std::vector<Batch> traced;
    std::vector<Batch> setupOnly;
    /** Peak resident memory once the first batch is done, MB. Later
     *  batches add only allocator fragmentation, which would make the
     *  figure depend on how many batches fit in the run. */
    double peakRssMb = 0.0;
};

/** The end-to-end metrics: untraced batches only. */
std::vector<Metric> endToEndMetrics(const Measured &m);

/**
 * The per-layer metrics. Host times whose names end in _ns come from
 * the traced batches, the rest from the untraced ones. A layer the
 * workload does not run reads 0.
 */
std::vector<Metric> perLayerMetrics(const Measured &m);

/**
 * Callback wall of one traced batch grouped by tag prefix
 * ("net.<topo>", "net.deliver", "net.retry", "workload", "arch",
 * "fault", "pdes", "other"), plus "sim.self": run span minus
 * callback wall. ms.
 */
std::map<std::string, double> layerWallMs(const Batch &traced);

/** A finite double with all its digits; anything else as null. */
std::string jsonNum(double v);

/** A JSON string literal. */
std::string jsonStr(const std::string &s);

/** Where the numbers were measured. */
struct Host
{
    unsigned nproc = 0;
    std::string cpu;
    std::string compiler;
    std::string buildType;
    std::string gitSha; ///< empty when unknown
    /** Busy-loop throughput of 4 threads over 1: the ceiling on any
     *  4-LP PDES speedup on this host. */
    double threadScaling4 = 0.0;
};

Host probeHost(const std::string &git_sha);
std::string hostJson(const Host &h);

/** Peak resident memory of this process, MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
