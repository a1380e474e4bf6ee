#include "harness.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "net/tracer.hh"
#include "sim/logging.hh"
#include "sim/telemetry/json.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"

namespace macrosim::bench
{

std::string
netName(NetId id)
{
    return service::netDisplayName(id);
}

std::unique_ptr<Network>
makeNetwork(NetId id, Simulator &sim, const MacrochipConfig &cfg)
{
    return service::makeNetworkFor(id, sim, cfg);
}

std::vector<WorkloadSpec>
figureWorkloads(std::uint64_t instr_per_core)
{
    std::vector<WorkloadSpec> all = applicationWorkloads();
    const auto synth = syntheticWorkloads();
    all.insert(all.end(), synth.begin(), synth.end());
    for (auto &spec : all)
        spec.instructionsPerCore = instr_per_core;
    return all;
}

std::vector<TraceCpuResult>
runWorkloadMatrix(std::uint64_t instr_per_core, std::uint64_t seed,
                  std::size_t jobs, bool progress,
                  const TelemetryOptions &opts,
                  MatrixTelemetry *telemetry_out)
{
    const std::vector<WorkloadSpec> workloads =
        figureWorkloads(instr_per_core);

    // One pre-sized slot per cell: workers fill their own slot, the
    // merge below walks the slots in submission order, so the
    // combined trace/CSV is bit-identical for any --jobs count.
    std::vector<CellTelemetry> slots(workloads.size()
                                     * allNetworks.size());

    std::vector<SweepJob<TraceCpuResult>> cells;
    std::uint32_t cell_idx = 0;
    for (const WorkloadSpec &spec : workloads) {
        for (const NetId id : allNetworks) {
            const std::string net_name = netName(id);
            // The cell's streams depend only on (root seed,
            // workload, network): bit-identical for any jobs value.
            const std::uint64_t cell_seed =
                deriveSeed(seed, spec.name, net_name);
            CellTelemetry *slot =
                telemetry_out ? &slots[cell_idx] : nullptr;
            const std::uint32_t pid = cell_idx++;
            cells.push_back(SweepJob<TraceCpuResult>{
                spec.name + " on " + net_name,
                [spec, id, net_name, cell_seed, progress, &opts,
                 slot, pid] {
                    const std::string label =
                        spec.name + " on " + net_name;
                    Simulator sim(cell_seed);
                    auto net = makeNetwork(id, sim, simulatedConfig());

                    const bool tracing = slot && opts.tracing();
                    std::unique_ptr<MessageTracer> tracer;
                    std::unique_ptr<PeriodicSampler> counters;
                    std::unique_ptr<SnapshotRecorder> snapshots;
                    if (tracing) {
                        tracer = std::make_unique<MessageTracer>(*net);
                        counters = occupancyCounterSampler(
                            sim, slot->trace, pid, opts.period());
                        sim.events().setProfiling(true);
                    }
                    if (slot && opts.metrics()) {
                        snapshots = std::make_unique<SnapshotRecorder>(
                            sim, opts.period());
                    }
                    if (opts.profile)
                        sim.events().setProfiling(true);

                    TraceCpuSystem cpu(sim, *net, spec,
                                       mix64(cell_seed));
                    TraceCpuResult r = cpu.run();

                    if (tracing) {
                        tracer->writeTrace(slot->trace, pid, label);
                        traceEventProfile(slot->trace, pid, sim);
                    }
                    if (snapshots) {
                        slot->metricsCsv = "# " + label + "\n"
                            + snapshots->csv();
                    }
                    if (opts.profile)
                        dumpEventProfile(label, sim);
                    dumpSimStats(label, sim);
                    if (progress) {
                        std::ostringstream line;
                        line << "  [matrix] " << spec.name << " on "
                             << netName(id) << ": runtime "
                             << r.runtimeNs() << " ns";
                        sweepLog(line.str());
                    }
                    return r;
                }});
        }
    }
    std::vector<TraceCpuResult> results =
        SweepRunner(jobs, progress)
            .run("workload-matrix", std::move(cells));

    if (telemetry_out) {
        for (CellTelemetry &slot : slots) {
            telemetry_out->trace.append(std::move(slot.trace));
            telemetry_out->metricsCsv += slot.metricsCsv;
        }
    }
    return results;
}

std::vector<TraceCpuResult>
runWorkloadMatrixWithTelemetry(std::uint64_t instr_per_core,
                               std::uint64_t seed, std::size_t jobs,
                               const TelemetryOptions &opts)
{
    const bool collect = opts.tracing() || opts.metrics();
    MatrixTelemetry telemetry;
    std::vector<TraceCpuResult> matrix = runWorkloadMatrix(
        instr_per_core, seed, jobs, true, opts,
        collect ? &telemetry : nullptr);

    if (opts.metrics() && !opts.metricsPath.empty())
        writeTextFile(opts.metricsPath, telemetry.metricsCsv);

    if (opts.tracing()) {
        std::ostringstream json;
        telemetry.trace.writeJson(json);
        writeTextFile(opts.tracePath, json.str());
        std::string error;
        if (!jsonValid(json.str(), &error)) {
            fatal("workload matrix trace '", opts.tracePath,
                  "' is not valid JSON: ", error);
        }
    }
    return matrix;
}

const TraceCpuResult &
find(const std::vector<TraceCpuResult> &matrix,
     const std::string &workload, NetId net)
{
    const std::string wanted = netName(net);
    for (const auto &r : matrix) {
        if (r.workload == workload && r.network == wanted)
            return r;
    }
    panic("bench::find: no result for ", workload, " on ", wanted);
}

std::uint64_t
instructionsArg(int argc, char **argv, std::uint64_t fallback)
{
    if (argc > 1) {
        const long v = std::atol(argv[1]);
        if (v > 0)
            return static_cast<std::uint64_t>(v);
    }
    return fallback;
}

void
dumpSimStats(const std::string &label, const Simulator &sim)
{
    if (!simStatsEnabled())
        return;
    std::ostringstream os;
    sim.telemetry().dump(os);
    // Fold the "name value" lines into one stderr line per cell so
    // parallel sweeps stay greppable.
    std::string folded = os.str();
    for (char &c : folded) {
        if (c == '\n')
            c = ' ';
    }
    sweepLog("  [simstats] " + label + ": " + folded);
}

void
dumpEventProfile(const std::string &label, const Simulator &sim)
{
    if (!sim.events().profiling())
        return;
    std::ostringstream os;
    os << "  [profile] " << label << "\n";
    sim.events().dumpProfile(os);
    std::string table = os.str();
    if (!table.empty() && table.back() == '\n')
        table.pop_back();
    sweepLog(table);
}

void
traceEventProfile(TraceSink &sink, std::uint32_t pid,
                  const Simulator &sim)
{
    if (!sim.events().profiling())
        return;
    constexpr std::uint32_t profileTid = 0xFFFF;
    sink.threadName(pid, profileTid, "event-loop profile");
    Tick at = 0;
    for (const EventProfileEntry &e : sim.events().profile()) {
        // Lay the tags end to end, 1 tick per wall-clock ns, so the
        // strip reads as a per-tag share of the loop's wall time.
        const Tick dur = std::max<Tick>(
            static_cast<Tick>(e.wallNs + 0.5), 1);
        sink.span(std::string(e.tag), "profile", pid, profileTid,
                  at, dur,
                  {{"count", std::to_string(e.count)},
                   {"wall_ns", jsonNumber(e.wallNs)}});
        at += dur;
    }
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("writeTextFile: cannot open '", path, "' for writing");
    os << text;
    os.close();
    if (!os)
        fatal("writeTextFile: write to '", path, "' failed");
}

std::unique_ptr<PeriodicSampler>
occupancyCounterSampler(Simulator &sim, TraceSink &sink,
                        std::uint32_t pid, Tick period)
{
    return std::make_unique<PeriodicSampler>(
        sim, period, [&sim, &sink, pid](Tick now) {
            sim.telemetry().forEach(
                [&sink, pid, now](const std::string &name, double v) {
                    if (name.ends_with("occupancy"))
                        sink.counter(name, pid, now, v);
                });
        });
}

} // namespace macrosim::bench
