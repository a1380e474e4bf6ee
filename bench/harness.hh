/**
 * @file
 * Shared support for the per-table / per-figure bench binaries:
 * the figure network lists, the figure 7-10 workload matrix, and
 * table printing helpers.
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
#include "net/two_phase.hh"
#include "sim/telemetry/sampler.hh"
#include "sim/telemetry/trace.hh"
#include "workloads/packet_injector.hh"
#include "workloads/trace_cpu.hh"

namespace macrosim::bench
{

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
 * Per-run telemetry collected by a matrix/curve cell: a Perfetto
 * event stream plus a snapshot CSV, merged by the caller in
 * deterministic submission order after the sweep drains.
 */
struct CellTelemetry
{
    TraceSink trace;
    std::string metricsCsv;
};

/** Telemetry for a whole workload matrix run. */
struct MatrixTelemetry
{
    TraceSink trace;
    std::string metricsCsv;
};

/**
 * Run every (workload x network) pair of figures 7-10, fanned out
 * over @p jobs worker threads (0 = --jobs / MACROSIM_JOBS /
 * hardware_concurrency), and collect the results in figure order.
 * Each cell runs in its own Simulator with a seed derived from
 * (@p seed, workload, network), so the matrix is bit-identical for
 * every jobs value. Emits one progress line per cell to stderr.
 *
 * With @p telemetry_out non-null, each cell additionally records a
 * message-lifecycle trace (when opts.tracing()) and periodic stat
 * snapshots (when opts.metrics()); both are merged into
 * @p telemetry_out in cell-submission order, so the output is
 * bit-identical for any --jobs count.
 */
std::vector<TraceCpuResult>
runWorkloadMatrix(std::uint64_t instr_per_core, std::uint64_t seed = 1,
                  std::size_t jobs = 0, bool progress = true,
                  const TelemetryOptions &opts = {},
                  MatrixTelemetry *telemetry_out = nullptr);

/**
 * runWorkloadMatrix() plus the file side of the telemetry flags:
 * writes --trace (validated as JSON, fatal() if malformed) and
 * --metrics outputs when requested. The shared entry point for the
 * figure-7..10 mains.
 */
std::vector<TraceCpuResult>
runWorkloadMatrixWithTelemetry(std::uint64_t instr_per_core,
                               std::uint64_t seed, std::size_t jobs,
                               const TelemetryOptions &opts);

/** Locate a result in the matrix. */
const TraceCpuResult &find(const std::vector<TraceCpuResult> &matrix,
                           const std::string &workload,
                           NetSel net);

/** Instructions per core: argv[1] if given, else @p fallback. */
std::uint64_t instructionsArg(int argc, char **argv,
                              std::uint64_t fallback);

/**
 * If simStatsEnabled(), dump @p sim's full telemetry registry
 * (simcore, net, arch subtrees) as one "[simstats] label: ..."
 * stderr line. Thread-safe: sweep cells call this from worker
 * threads.
 */
void dumpSimStats(const std::string &label, const Simulator &sim);

/**
 * Dump @p sim's event-loop self-profile table to stderr under
 * @p label (one serialized block; sweep cells may call this from
 * worker threads). No-op unless the sim's profiler was enabled.
 */
void dumpEventProfile(const std::string &label, const Simulator &sim);

/**
 * Append @p sim's event-loop self-profile to @p sink as spans on a
 * synthetic "event-loop profile" thread of @p pid: one span per tag,
 * laid end to end, span length = wall-clock ns spent (1 ns = 1 tick),
 * with count/wall_ns args. Gives the trace the profiler's story
 * without a separate report.
 */
void traceEventProfile(TraceSink &sink, std::uint32_t pid,
                       const Simulator &sim);

/** Write @p text to @p path; fatal() on any I/O failure. */
void writeTextFile(const std::string &path, const std::string &text);

/**
 * Arm a sampler that snapshots every "*.occupancy"-suffixed stat of
 * @p sim's registry into @p sink as Perfetto counter tracks, every
 * @p period ticks. Keep the returned sampler alive for the run.
 */
std::unique_ptr<PeriodicSampler>
occupancyCounterSampler(Simulator &sim, TraceSink &sink,
                        std::uint32_t pid, Tick period);

} // namespace macrosim::bench

#endif // MACROSIM_BENCH_HARNESS_HH
