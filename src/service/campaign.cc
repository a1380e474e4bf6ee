#include "service/campaign.hh"

#include <bit>
#include <cstdio>
#include <mutex>
#include <sstream>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"

namespace macrosim::service
{

namespace
{

/** %.17g: enough digits that distinct doubles print distinctly. */
std::string
fmtDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::size_t
CampaignSpec::cellCount() const
{
    if (kind == CampaignKind::InjectorSweep)
        return patterns.size() * networks.size() * loads.size();
    return workloads.size() * networks.size();
}

std::uint64_t
CampaignSpec::fingerprint() const
{
    std::uint64_t h = 0x6d616372736d6331ULL; // "macrsmc1"
    h = hashCombine(h, static_cast<std::uint64_t>(kind));
    h = hashCombine(h, seed);
    h = hashCombine(h, patterns.size());
    for (const std::string &p : patterns)
        h = hashCombine(h, p);
    h = hashCombine(h, networks.size());
    for (const NetSel n : networks)
        h = hashCombine(h, static_cast<std::uint64_t>(n));
    h = hashCombine(h, loads.size());
    for (const double l : loads)
        h = hashCombine(h, std::bit_cast<std::uint64_t>(l));
    h = hashCombine(h, warmupNs);
    h = hashCombine(h, windowNs);
    h = hashCombine(h, instructionsPerCore);
    h = hashCombine(h, workloads.size());
    for (const std::string &w : workloads)
        h = hashCombine(h, w);
    return h;
}

std::string
CampaignSpec::validate() const
{
    if (kind != CampaignKind::InjectorSweep
        && kind != CampaignKind::WorkloadMatrix) {
        return "unknown campaign kind "
               + std::to_string(static_cast<int>(kind));
    }
    if (networks.empty())
        return "no networks selected";
    for (const NetSel n : networks) {
        if (netDisplayName(n) == "?") {
            return "unknown network id "
                   + std::to_string(static_cast<int>(n));
        }
    }
    if (kind == CampaignKind::InjectorSweep) {
        if (patterns.empty())
            return "injector campaign has no patterns";
        if (loads.empty())
            return "injector campaign has no load points";
        for (const std::string &p : patterns) {
            TrafficPattern parsed;
            if (!patternFromString(p, &parsed))
                return "unknown traffic pattern '" + p + "'";
        }
        for (const double l : loads) {
            if (!(l > 0.0) || l > 1.0) {
                return "load " + fmtDouble(l)
                       + " outside (0, 1]";
            }
        }
        if (windowNs == 0)
            return "measurement window is zero";
    } else {
        if (workloads.empty())
            return "matrix campaign has no workloads";
        for (const std::string &w : workloads) {
            try {
                (void)workloadByName(w);
            } catch (const FatalError &) {
                return "unknown workload '" + w + "'";
            }
        }
        if (instructionsPerCore == 0)
            return "instructionsPerCore is zero";
    }
    if (cellCount() == 0)
        return "campaign decomposes into zero cells";
    return {};
}

CampaignSpec
CampaignSpec::smokeInjector()
{
    CampaignSpec spec;
    spec.kind = CampaignKind::InjectorSweep;
    spec.seed = 17;
    spec.patterns = {"uniform"};
    spec.networks = {NetSel::TokenRing, NetSel::PointToPoint,
                     NetSel::TwoPhase};
    spec.loads = {0.01, 0.02};
    spec.warmupNs = 200;
    spec.windowNs = 600;
    return spec;
}

std::vector<CampaignCell>
enumerateCells(const CampaignSpec &spec)
{
    std::vector<CampaignCell> cells;
    cells.reserve(spec.cellCount());
    std::uint32_t index = 0;
    if (spec.kind == CampaignKind::InjectorSweep) {
        for (const std::string &p : spec.patterns) {
            TrafficPattern pattern = TrafficPattern::Uniform;
            if (!patternFromString(p, &pattern))
                fatal("enumerateCells: unknown pattern '", p, "'");
            for (const NetSel net : spec.networks) {
                for (const double load : spec.loads) {
                    CampaignCell cell;
                    cell.index = index++;
                    cell.net = net;
                    cell.pattern = pattern;
                    cell.load = load;
                    std::ostringstream label;
                    label << p << " @ " << load * 100.0 << "% on "
                          << netDisplayName(net);
                    cell.label = label.str();
                    cells.push_back(std::move(cell));
                }
            }
        }
    } else {
        for (const std::string &w : spec.workloads) {
            for (const NetSel net : spec.networks) {
                CampaignCell cell;
                cell.index = index++;
                cell.net = net;
                cell.workload = w;
                cell.label = w + " on " + netDisplayName(net);
                cells.push_back(std::move(cell));
            }
        }
    }
    return cells;
}

std::string
tableHeader(const CampaignSpec &spec)
{
    const bool injector = spec.kind == CampaignKind::InjectorSweep;
    char head[160];
    std::snprintf(head, sizeof(head),
                  "# macrosim campaign kind=%s seed=%llu cells=%zu "
                  "fingerprint=%016llx\n",
                  injector ? "injector" : "matrix",
                  static_cast<unsigned long long>(spec.seed),
                  spec.cellCount(),
                  static_cast<unsigned long long>(spec.fingerprint()));
    return std::string(head)
           + (injector ? "index,pattern,network,load_frac,offered_pct,"
                         "mean_ns,p50_ns,p99_ns,max_ns,delivered_bpns,"
                         "delivered_pct,measured,overflow,"
                         "offered_measured_pct\n"
                       : "index,workload,network,runtime_ticks,"
                         "instructions,coherence_ops,op_latency_ns,"
                         "total_j,router_j,cpu_j,edp\n");
}

std::string
CampaignResult::table() const
{
    std::string out = tableHeader(spec);
    for (const CellOutcome &cell : cells)
        out += cell.row + '\n';
    if (interrupted)
        out += "# INTERRUPTED: table is partial\n";
    return out;
}

CellOutcome
runCampaignCell(const CampaignSpec &spec, const CampaignCell &cell)
{
    std::ostringstream row;
    row << cell.index << ",";
    if (spec.kind == CampaignKind::InjectorSweep) {
        // The seed label uses the full-precision load so two nearby
        // load points can never share a random stream.
        const std::string seed_label =
            std::string(to_string(cell.pattern)) + "@"
            + fmtDouble(cell.load);
        const std::uint64_t cell_seed = deriveSeed(
            spec.seed, seed_label, netDisplayName(cell.net));
        Simulator sim(cell_seed);
        auto net = makeNetworkFor(cell.net, sim, simulatedConfig());
        InjectorConfig cfg;
        cfg.pattern = cell.pattern;
        cfg.load = cell.load;
        cfg.warmup = spec.warmupNs * tickNs;
        cfg.window = spec.windowNs * tickNs;
        cfg.seed = cell_seed;
        const InjectorResult r = runOpenLoop(sim, *net, cfg);
        row << to_string(cell.pattern) << ","
            << netDisplayName(cell.net) << ","
            << fmtDouble(r.offeredLoadPct / 100.0) << ","
            << fmtDouble(r.offeredLoadPct) << ","
            << fmtDouble(r.meanLatencyNs) << ","
            << fmtDouble(r.p50LatencyNs) << ","
            << fmtDouble(r.p99LatencyNs) << ","
            << fmtDouble(r.maxLatencyNs) << ","
            << fmtDouble(r.deliveredBytesPerNsPerSite) << ","
            << fmtDouble(r.deliveredPct) << "," << r.measuredPackets
            << "," << r.overflowPackets << ","
            << fmtDouble(r.offeredMeasuredPct);
    } else {
        WorkloadSpec w = workloadByName(cell.workload);
        w.instructionsPerCore = spec.instructionsPerCore;
        // Identical derivation to bench::runWorkloadMatrix, so a
        // matrix campaign reproduces the figure benches' per-cell
        // streams bit for bit.
        const std::uint64_t cell_seed = deriveSeed(
            spec.seed, w.name, netDisplayName(cell.net));
        Simulator sim(cell_seed);
        auto net = makeNetworkFor(cell.net, sim, simulatedConfig());
        TraceCpuSystem cpu(sim, *net, w, mix64(cell_seed));
        const TraceCpuResult r = cpu.run();
        row << r.workload << "," << r.network << "," << r.runtime
            << "," << r.instructions << "," << r.coherenceOps << ","
            << fmtDouble(r.opLatencyNs) << ","
            << fmtDouble(r.totalJoules) << ","
            << fmtDouble(r.routerJoules) << ","
            << fmtDouble(r.cpuJoules) << "," << fmtDouble(r.edp);
    }
    return {cell.index, false, row.str()};
}

CampaignResult
runCampaign(const CampaignSpec &spec, std::size_t jobs,
            const std::function<void(const CellOutcome &)> &cellDone,
            const std::map<std::uint32_t, CellOutcome> *prior,
            bool progressLog)
{
    const std::string problem = spec.validate();
    if (!problem.empty())
        fatal("runCampaign: invalid campaign: ", problem);

    const std::vector<CampaignCell> cells = enumerateCells(spec);

    CampaignResult result;
    result.spec = spec;
    result.cells.resize(cells.size());

    // Splice prior (journaled) outcomes in and collect the cells
    // that still need to run.
    std::vector<const CampaignCell *> pending;
    for (const CampaignCell &cell : cells) {
        bool replayed = false;
        if (prior != nullptr) {
            const auto it = prior->find(cell.index);
            if (it != prior->end() && !it->second.skipped) {
                result.cells[cell.index] = it->second;
                replayed = true;
            }
        }
        if (!replayed)
            pending.push_back(&cell);
    }

    // cellDone (the journal append) sees cells in completion order,
    // one at a time.
    std::mutex doneMutex;
    std::vector<SweepJob<CellOutcome>> sweep;
    sweep.reserve(pending.size());
    for (const CampaignCell *cell : pending) {
        sweep.push_back(SweepJob<CellOutcome>{
            cell->label, [&spec, cell, &cellDone, &doneMutex] {
                CellOutcome out = runCampaignCell(spec, *cell);
                if (cellDone) {
                    std::lock_guard<std::mutex> lock(doneMutex);
                    cellDone(out);
                }
                return out;
            }});
    }

    SweepRunner runner(jobs, progressLog);
    SweepOutcome<CellOutcome> outcome =
        runner.runCancellable("campaign", std::move(sweep));

    for (std::size_t i = 0; i < pending.size(); ++i) {
        const CampaignCell &cell = *pending[i];
        if (outcome.ran[i]) {
            result.cells[cell.index] =
                std::move(outcome.results[i]);
        } else {
            result.cells[cell.index] = {
                cell.index, true,
                std::to_string(cell.index) + "," + cell.label
                    + ",SKIPPED"};
        }
    }
    result.interrupted = outcome.interrupted;
    return result;
}

} // namespace macrosim::service
