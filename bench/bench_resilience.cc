/**
 * @file
 * Availability sweep under fault injection: fault rate x topology.
 *
 * Each cell runs the open-loop injector (uniform traffic, fixed
 * offered load) against one network while a seeded FaultSchedule
 * degrades it: laser droop, ring drift, waveguide creep, receiver
 * degradation, hard channel/site kills, and paired repairs. The
 * network runs under a bounded-retry policy, so packets that hit a
 * dead resource back off and re-route instead of dying; what cannot
 * be saved is counted as a drop. The table reports per-cell
 * availability (delivered / injected), achieved throughput as a
 * fraction of the per-site peak, the p99 latency (retries fatten the
 * tail), and the fault model's own counters.
 *
 * Determinism: each cell's simulator, injector and fault schedule
 * are seeded with deriveSeed(seed, "resilience-f<N>", network), so
 * the table is bit-identical for any --jobs value.
 *
 * Flags: --jobs N, --seed N, --smoke (reduced rates and window for
 * the CI smoke test), plus the shared telemetry flags.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hh"
#include "fault/injector.hh"
#include "harness.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"
#include "workloads/packet_injector.hh"
#include "workloads/patterns.hh"

using namespace macrosim;
using namespace macrosim::bench;

namespace
{

struct Cell
{
    NetId id = NetId::PointToPoint;
    std::uint32_t faults = 0;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t retried = 0;
    double availabilityPct = 0.0;
    double minMarginDb = 0.0;
    InjectorResult traffic;
};

Cell
runCell(NetId id, std::uint32_t faults, std::uint64_t seed,
        const TelemetryOptions &topt)
{
    const std::uint64_t cell_seed = deriveSeed(
        seed, "resilience-f" + std::to_string(faults), netName(id));

    Simulator sim(cell_seed);
    auto net = makeNetwork(id, sim, simulatedConfig());

    RetryPolicy retry;
    retry.backoffBase = 50 * tickNs;
    retry.maxAttempts = 4;
    net->setRetryPolicy(retry);

    InjectorConfig cfg;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.load = 0.10;
    cfg.warmup = topt.smoke ? 500 * tickNs : 2000 * tickNs;
    cfg.window = topt.smoke ? 2500 * tickNs : 10000 * tickNs;
    cfg.seed = cell_seed;

    RandomFaultConfig fault_cfg;
    fault_cfg.events = faults;
    fault_cfg.horizon = cfg.warmup + cfg.window;
    FaultInjector injector(
        sim, *net,
        FaultSchedule::random(cell_seed, fault_cfg, *net));
    injector.arm();

    Cell cell;
    cell.id = id;
    cell.faults = faults;
    cell.traffic = runOpenLoop(sim, *net, cfg);
    cell.injected = net->stats().injected.value();
    cell.delivered = net->stats().delivered.value();
    cell.dropped = net->droppedPackets();
    cell.retried = net->retriedPackets();
    cell.availabilityPct = cell.injected > 0
        ? static_cast<double>(cell.delivered)
            / static_cast<double>(cell.injected) * 100.0
        : 100.0;
    cell.minMarginDb = injector.minMarginDb();

    if (simStatsEnabled()) {
        dumpSimStats(netName(id) + " @ " + std::to_string(faults)
                     + " faults", sim);
    }
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const BenchFlags flags = benchFlags(argc, argv, 1);
    const std::size_t jobs = flags.jobs;
    const std::uint64_t seed = flags.seed;
    const TelemetryOptions &topt = flags.telemetry;

    std::vector<std::uint32_t> rates = {0, 8, 16, 32};
    if (topt.smoke)
        rates = {0, 8};

    std::printf("Resilience: availability under fault injection "
                "(uniform traffic @ 10%% load, bounded retry)\n\n");
    std::printf("network,faults,injected,delivered,dropped,retried,"
                "availability_pct,throughput_pct,p99_ns,"
                "min_margin_db\n");

    std::vector<SweepJob<Cell>> sweep;
    for (const std::uint32_t faults : rates) {
        for (const NetId id : extendedNetworks) {
            sweep.push_back(SweepJob<Cell>{
                netName(id) + " @ " + std::to_string(faults)
                    + " faults",
                [id, faults, seed, &topt] {
                    return runCell(id, faults, seed, topt);
                }});
        }
    }

    const std::vector<Cell> cells =
        SweepRunner(jobs).run("resilience", std::move(sweep));
    if (sweepInterrupted())
        return sweepExitStatus();
    for (const Cell &c : cells) {
        std::printf("%s,%u,%llu,%llu,%llu,%llu,%.3f,%.2f,%.1f,"
                    "%.2f\n",
                    netName(c.id).c_str(), c.faults,
                    static_cast<unsigned long long>(c.injected),
                    static_cast<unsigned long long>(c.delivered),
                    static_cast<unsigned long long>(c.dropped),
                    static_cast<unsigned long long>(c.retried),
                    c.availabilityPct, c.traffic.deliveredPct,
                    c.traffic.p99LatencyNs, c.minMarginDb);
    }
    return sweepExitStatus();
}
