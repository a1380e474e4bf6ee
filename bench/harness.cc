#include "harness.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include <sys/stat.h>
#include <unistd.h>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"

namespace macrosim::bench
{

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

SweepRecorder::SweepRecorder(TelemetryOptions opts)
    : opts_(std::move(opts))
{
}

std::size_t
SweepRecorder::addCells(std::size_t n)
{
    const std::size_t first = slots_.size();
    slots_.resize(first + n);
    return first;
}

SweepRecorder::Cell::Cell(SweepRecorder &recorder, std::size_t cell,
                          std::uint32_t pid, Simulator &sim,
                          Network &net)
    : opts_(recorder.opts_), trace_(recorder.slots_.at(cell).trace),
      metricsCsv_(recorder.slots_.at(cell).metricsCsv), pid_(pid),
      sim_(sim)
{
    if (opts_.tracing()) {
        tracer_ = std::make_unique<MessageTracer>(net);
        // Every "*.occupancy" stat as a Perfetto counter track.
        counters_ = std::make_unique<PeriodicSampler>(
            sim, opts_.period(), [this](Tick now) {
                sim_.telemetry().forEach(
                    [this, now](const std::string &name, double v) {
                        if (name.ends_with("occupancy"))
                            trace_.counter(name, pid_, now, v);
                    });
            });
        sim.events().setProfiling(true);
    }
    if (opts_.metrics()) {
        snapshots_ =
            std::make_unique<SnapshotRecorder>(sim, opts_.period());
    }
    if (opts_.profile)
        sim.events().setProfiling(true);
}

void
SweepRecorder::Cell::finish(const std::string &label)
{
    if (tracer_) {
        tracer_->writeTrace(trace_, pid_, label);
        // The event-loop profile as a strip of spans, one per tag,
        // laid end to end at 1 tick per wall-clock ns: a per-tag
        // share of the loop's wall time.
        constexpr std::uint32_t profileTid = 0xFFFF;
        trace_.threadName(pid_, profileTid, "event-loop profile");
        Tick at = 0;
        for (const EventProfileEntry &e : sim_.events().profile()) {
            const Tick dur = std::max<Tick>(
                static_cast<Tick>(e.wallNs + 0.5), 1);
            trace_.span(std::string(e.tag), "profile", pid_,
                        profileTid, at, dur,
                        {{"count", std::to_string(e.count)},
                         {"wall_ns", jsonNumber(e.wallNs)}});
            at += dur;
        }
    }
    if (snapshots_)
        metricsCsv_ += "# " + label + "\n" + snapshots_->csv();
    if (opts_.profile) {
        std::ostringstream os;
        os << "  [profile] " << label << "\n";
        sim_.events().dumpProfile(os);
        std::string table = os.str();
        if (table.back() == '\n')
            table.pop_back();
        statusLine(table);
    }
    if (simStatsEnabled()) {
        // One line per simulation keeps parallel sweeps greppable.
        std::ostringstream os;
        sim_.telemetry().dump(os);
        std::string folded = os.str();
        std::replace(folded.begin(), folded.end(), '\n', ' ');
        statusLine("  [simstats] " + label + ": " + folded);
    }
}

void
SweepRecorder::write()
{
    TraceSink trace;
    std::string metrics;
    for (Slot &slot : slots_) {
        trace.append(std::move(slot.trace));
        metrics += slot.metricsCsv;
    }
    if (opts_.metrics() && !opts_.metricsPath.empty())
        writeTextFile(opts_.metricsPath, metrics);
    if (opts_.tracing()) {
        std::ostringstream json;
        trace.writeJson(json);
        writeJsonFile(opts_.tracePath, std::move(json).str());
        std::fprintf(stderr,
                     "wrote %zu trace events to %s (%llu dropped)\n",
                     trace.size(), opts_.tracePath.c_str(),
                     static_cast<unsigned long long>(trace.dropped()));
    }
}

std::vector<TraceCpuResult>
runWorkloadMatrix(std::uint64_t instr_per_core, std::uint64_t seed,
                  std::size_t jobs, bool progress,
                  SweepRecorder *recorder)
{
    const std::vector<WorkloadSpec> workloads =
        figureWorkloads(instr_per_core);
    SweepRecorder untraced;
    SweepRecorder &rec = recorder ? *recorder : untraced;
    std::size_t cell_idx =
        rec.addCells(workloads.size() * allNetworks.size());

    std::vector<SweepJob<TraceCpuResult>> cells;
    std::uint32_t pid = 0;
    for (const WorkloadSpec &spec : workloads) {
        for (const NetSel id : allNetworks) {
            const std::string net_name = netDisplayName(id);
            // The cell's streams depend only on (root seed,
            // workload, network): bit-identical for any jobs value.
            const std::uint64_t cell_seed =
                deriveSeed(seed, spec.name, net_name);
            const std::string label = spec.name + " on " + net_name;
            cells.push_back(SweepJob<TraceCpuResult>{
                label, [spec, id, label, cell_seed, progress, &rec,
                        cell = cell_idx++, pid = pid++] {
                    Simulator sim(cell_seed);
                    auto net = makeNetworkFor(id, sim, simulatedConfig());
                    SweepRecorder::Cell telemetry(rec, cell, pid, sim,
                                                  *net);
                    TraceCpuSystem cpu(sim, *net, spec,
                                       mix64(cell_seed));
                    TraceCpuResult r = cpu.run();
                    telemetry.finish(label);
                    if (progress) {
                        std::ostringstream line;
                        line << "  [matrix] " << label << ": runtime "
                             << r.runtimeNs() << " ns";
                        statusLine(line.str());
                    }
                    return r;
                }});
        }
    }
    return SweepRunner(jobs, progress)
        .run("workload-matrix", std::move(cells));
}

const TraceCpuResult &
find(const std::vector<TraceCpuResult> &matrix,
     const std::string &workload, NetSel net)
{
    const std::string wanted = netDisplayName(net);
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
writeTextFile(const std::string &path, const std::string &text)
{
    // Write a sibling and rename it over the path: a run killed
    // mid-write leaves the old file or none, never a torn one. A
    // device or FIFO (--trace=/dev/stdout) is written in place, as
    // renaming over it would replace it.
    struct stat st;
    const bool inPlace =
        ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
    const std::string tmp = inPlace
        ? path
        : path + "." + std::to_string(::getpid()) + ".tmp";
    std::ofstream os(tmp, std::ios::binary);
    if (!os)
        fatal("writeTextFile: cannot open '", tmp, "' for writing");
    os << text;
    os.close();
    if (!os
        || (!inPlace && std::rename(tmp.c_str(), path.c_str()) != 0)) {
        if (!inPlace)
            std::remove(tmp.c_str());
        fatal("writeTextFile: write to '", path, "' failed");
    }
}

void
writeJsonFile(const std::string &path, const std::string &json)
{
    std::string error;
    if (!jsonValid(json, &error))
        fatal("writeJsonFile: '", path, "' is not valid JSON: ", error);
    writeTextFile(path, json);
}

std::string
pinJson(const std::string &bench, const JsonObject &fields)
{
    static const JsonObject host = probeHost(MACROSIM_BUILD_TYPE);
    JsonObject pin;
    pin.string("bench", bench).object("host", host).append(fields);
    const std::string text = pin.str(true);
    std::string error;
    if (!jsonValid(text, &error))
        fatal("pinJson: the ", bench, " pin is not valid JSON: ", error);
    return text;
}

} // namespace macrosim::bench
