/**
 * @file
 * Shared support for the per-table / per-figure bench binaries:
 * the figure network lists, the figure 7-10 workload matrix, the
 * sweep telemetry recorder, the one writer of their files and the
 * BENCH_*.json pins, and the hold model of the event-core benches.
 */

#ifndef MACROSIM_BENCH_HARNESS_HH
#define MACROSIM_BENCH_HARNESS_HH

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "flags.hh"
#include "net/circuit_switched.hh"
#include "net/factory.hh"
#include "net/hermes.hh"
#include "net/limited_pt2pt.hh"
#include "net/pt2pt.hh"
#include "net/token_ring.hh"
#include "net/tracer.hh"
#include "net/two_phase.hh"
#include "sim/event.hh"
#include "sim/random.hh"
#include "sim/telemetry/json.hh"
#include "sim/telemetry/sampler.hh"
#include "sim/telemetry/trace.hh"
#include "workloads/packet_injector.hh"
#include "workloads/trace_cpu.hh"

namespace macrosim::bench
{

/**
 * One event of the hold model: it only reschedules itself at
 * now + U[1 tick, holdSpread], so a queue prefilled with N of them
 * stays N deep. bench_micro_simcore's depth curve and
 * bench_micro_hotpath's deep_hold cell run it.
 */
struct HoldEvent
{
    static constexpr Tick holdSpread = 2 * tickUs;

    EventQueue *q;
    Rng *rng;

    void
    operator()() const
    {
        q->schedule(q->now() + 1 + rng->below(holdSpread), *this,
                    "bench.hold");
    }
};

/** Figure order: the paper's legend ordering. */
constexpr std::array<NetSel, 6> allNetworks = {
    NetSel::TokenRing,    NetSel::CircuitSwitched, NetSel::PointToPoint,
    NetSel::LimitedPtToPt, NetSel::TwoPhase,       NetSel::TwoPhaseAlt,
};

/** The five networks of figure 6 (no ALT variant there). */
constexpr std::array<NetSel, 5> fig6Networks = {
    NetSel::TokenRing, NetSel::CircuitSwitched, NetSel::PointToPoint,
    NetSel::LimitedPtToPt, NetSel::TwoPhase,
};

/**
 * The paper's five architectures plus the hierarchical hermes
 * extension — the "six networks" of the scaling and resilience
 * studies. The figure benches keep the paper-exact lists above so
 * their outputs stay byte-identical to the seed.
 */
constexpr std::array<NetSel, 6> extendedNetworks = {
    NetSel::TokenRing, NetSel::CircuitSwitched, NetSel::PointToPoint,
    NetSel::LimitedPtToPt, NetSel::TwoPhase, NetSel::Hermes,
};

/** Figure 7 x-axis order: six applications then five synthetics. */
std::vector<WorkloadSpec> figureWorkloads(std::uint64_t instr_per_core);

/**
 * The telemetry flags (TelemetryOptions) of one bench run, applied
 * to every simulation of its sweeps. Each sweep cell owns one slot —
 * a Perfetto event stream and a snapshot CSV — that only its worker
 * writes; write() merges the slots in submission order, so both
 * files are bit-identical for any --jobs count.
 */
class SweepRecorder
{
  public:
    explicit SweepRecorder(TelemetryOptions opts = {});

    const TelemetryOptions &options() const { return opts_; }

    /**
     * Add @p n cell slots, in submission order; call before the
     * sweep that fills them starts. @return The first one's index.
     */
    std::size_t addCells(std::size_t n);

    /**
     * The telemetry of one simulation in a cell, armed from the
     * options when constructed (after the network, before the
     * workload): the message tracer, occupancy counter tracks and
     * the event-loop profiler under --trace, stat snapshots under
     * --metrics, the profiler under --profile. finish() collects
     * them after the run under process @p pid of the trace.
     */
    class Cell
    {
      public:
        Cell(SweepRecorder &recorder, std::size_t cell,
             std::uint32_t pid, Simulator &sim, Network &net);
        // The occupancy sampler's callback holds this object's
        // address.
        Cell(const Cell &) = delete;
        Cell &operator=(const Cell &) = delete;

        /**
         * After the run: the trace spans and profile strip, the
         * snapshot CSV under a "# @p label" line, the --profile
         * table and the --sim-stats line, all named @p label.
         */
        void finish(const std::string &label);

      private:
        const TelemetryOptions &opts_;
        TraceSink &trace_;
        std::string &metricsCsv_;
        std::uint32_t pid_;
        Simulator &sim_;
        std::unique_ptr<MessageTracer> tracer_;
        std::unique_ptr<PeriodicSampler> counters_;
        std::unique_ptr<SnapshotRecorder> snapshots_;
    };

    /**
     * After the sweeps: merge the cells in submission order, write
     * --metrics, and write --trace through writeJsonFile().
     */
    void write();

  private:
    struct Slot
    {
        TraceSink trace;
        std::string metricsCsv;
    };

    TelemetryOptions opts_;
    std::vector<Slot> slots_;
};

/**
 * Run every (workload x network) pair of figures 7-10, fanned out
 * over @p jobs worker threads (0 = hardware_concurrency), and
 * collect the results in figure order.
 * Each cell runs in its own Simulator with a seed derived from
 * (@p seed, workload, network), so the matrix is bit-identical for
 * every jobs value. Emits one progress line per cell to stderr.
 * With @p recorder, every matrix cell records into a cell slot of
 * it; the caller write()s it after the sweep.
 */
std::vector<TraceCpuResult>
runWorkloadMatrix(std::uint64_t instr_per_core, std::uint64_t seed = 1,
                  std::size_t jobs = 0, bool progress = true,
                  SweepRecorder *recorder = nullptr);

/** Locate a result in the matrix. */
const TraceCpuResult &find(const std::vector<TraceCpuResult> &matrix,
                           const std::string &workload,
                           NetSel net);

/**
 * Write @p text to a temp file beside @p path, then rename() it over
 * @p path, so the file is whole or absent even if the process dies
 * mid-write. A @p path that exists and is not a regular file (a
 * device or FIFO) is written in place. fatal() on any I/O failure,
 * leaving no temp file.
 */
void writeTextFile(const std::string &path, const std::string &text);

/**
 * writeTextFile() for a JSON document: fatal(), naming @p path,
 * without writing anything unless jsonValid() accepts @p json.
 */
void writeJsonFile(const std::string &path, const std::string &json);

/**
 * The text of a BENCH_<bench>.json pin: {"bench": @p bench, "host":
 * probeHost() with the benches' build type, @p fields…}, one
 * top-level field per line; fatal() unless jsonValid() accepts it.
 * The host is probed once per process. Write the pin with
 * writeJsonFile().
 */
std::string pinJson(const std::string &bench, const JsonObject &fields);

} // namespace macrosim::bench

#endif // MACROSIM_BENCH_HARNESS_HH
