/**
 * @file
 * End-to-end hot-path throughput bench with a heap-counting hook.
 *
 * Pins three cells to BENCH_hotpath.json (alongside the
 * BENCH_simcore.json flow) so the events/sec trajectory of the
 * allocation-free hot path is tracked across PRs:
 *
 *  - schedule-heavy: the raw schedule/execute path with
 *    deliverAt-sized captures (a Message payload per event), the
 *    pattern every topology's delivery path produces. Steady-state
 *    allocations-per-event is measured with a global operator-new
 *    counter and must be zero: captures live in the event arena's
 *    inline callback storage, never on the heap.
 *  - coherence-steady-state: a closed-loop directory-mode
 *    CoherenceEngine over the point-to-point network, issue/retire
 *    at a fixed outstanding-transaction depth — the txns_/lineLocks_/
 *    outstanding_/directory flat-table path.
 *  - uniform-random: a fig6-style open-loop packet-injector cell at
 *    moderate load, the paper's load-sweep inner loop.
 *
 * Every run fails if a cell's timed region runs no events, and writes
 * a non-finite value as null. --smoke runs reduced rounds and
 * enforces the allocation budget plus a --jobs determinism check
 * (the sweep discipline of test_determinism.cc: per-cell seeds
 * derived from cell identity, results compared for exact equality
 * across jobs counts); it is wired into ctest and meant to run under
 * MACROSIM_SANITIZE=address.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "harness.hh"
#include "net/pt2pt.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"
#include "sim/telemetry/json.hh"
#include "workloads/coherence.hh"
#include "workloads/packet_injector.hh"

using namespace macrosim;
using namespace macrosim::bench;

// ---------------------------------------------------------------
// Heap-counting hook: every C++ allocation in the process bumps one
// relaxed atomic. The cells snapshot the counter around their
// steady-state region; the smoke test fails if the schedule-heavy
// cell allocates at all per event.
// ---------------------------------------------------------------

namespace
{

std::atomic<std::uint64_t> g_heapAllocs{0};

std::uint64_t
heapAllocs()
{
    return g_heapAllocs.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, align < sizeof(void *) ? sizeof(void *)
                                                  : align,
                       size ? size : 1)
        != 0) {
        throw std::bad_alloc();
    }
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

// ---------------------------------------------------------------
// Cell result plumbing
// ---------------------------------------------------------------

struct CellResult
{
    /** Events the timed region ran. */
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
    /** Heap allocations per executed event in the steady state. */
    double allocsPerEvent = 0.0;
};

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** @p v formatted by @p fmt, or null when it is not finite. */
std::string
jsonNumber(const char *fmt, double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

/** Pre-PR coherence-steady-state throughput (std::function closures
 *  + node-based unordered_maps), measured on the reference machine
 *  with the same cell parameters. The speedup field in
 *  BENCH_hotpath.json is relative to this pin. */
constexpr double baselineCoherenceEventsPerSec = 2.214137e+06;

// ---------------------------------------------------------------
// Cell 1: schedule-heavy
// ---------------------------------------------------------------

/** Delivery-sized payload: what Network::deliverAt captures. */
struct FatPayload
{
    Message msg;
};

std::uint64_t
scheduleHeavyRound(EventQueue &q, std::uint64_t *sink)
{
    constexpr int events = 4096;
    for (int i = 0; i < events; ++i) {
        FatPayload payload;
        payload.msg.id = static_cast<MessageId>(i);
        payload.msg.bytes = 64;
        q.schedule(q.now() + static_cast<Tick>(i * 7 % 997 + 1),
                   [payload, sink] { *sink += payload.msg.bytes; },
                   "bench.fat");
    }
    q.runUntil();
    return 2 * events; // schedules + executions
}

CellResult
runScheduleHeavy(bool smoke)
{
    EventQueue q;
    std::uint64_t sink = 0;
    // Warm up: grow the arena, the heap and the callback storage to
    // steady-state footprint.
    scheduleHeavyRound(q, &sink);

    const std::uint64_t allocs0 = heapAllocs();
    const Clock::time_point t0 = Clock::now();
    std::uint64_t ops = 0;
    const double target = smoke ? 0.02 : 0.3;
    do {
        for (int i = 0; i < 8; ++i)
            ops += scheduleHeavyRound(q, &sink);
    } while (secondsSince(t0) < target);
    const double seconds = secondsSince(t0);
    const std::uint64_t allocs = heapAllocs() - allocs0;

    CellResult r;
    r.events = ops;
    r.eventsPerSec = static_cast<double>(ops) / seconds;
    r.allocsPerEvent =
        static_cast<double>(allocs) / static_cast<double>(ops);
    return r;
}

// ---------------------------------------------------------------
// Cell 2: coherence-steady-state
// ---------------------------------------------------------------

/**
 * Closed-loop driver: each site keeps a fixed number of accesses
 * outstanding against a working set larger than the aggregate L2, so
 * the engine sits in steady-state issue/retire (misses, directory
 * lookups, data replies, evictions, writebacks) for the whole run.
 */
struct ClosedLoop
{
    Simulator &sim;
    CoherenceEngine &eng;
    Rng rng;
    std::uint64_t remaining;

    /** 2^19 lines (32 MB) >> 64 x 256 KB of L2. */
    static constexpr std::uint64_t workingSetLines = 1u << 19;

    ClosedLoop(Simulator &s, CoherenceEngine &e, std::uint64_t seed,
               std::uint64_t budget)
        : sim(s), eng(e), rng(seed), remaining(budget)
    {}

    void
    issue(SiteId site)
    {
        while (remaining > 0) {
            --remaining;
            const Addr addr = rng.below(workingSetLines) * 64;
            const MemOp op =
                rng.chance(0.3) ? MemOp::Write : MemOp::Read;
            const auto txn = eng.startAccess(
                site, addr, op,
                [this, site](TxnId, Tick) { issue(site); });
            if (txn.has_value())
                return; // the completion callback re-enters
        }
    }
};

CellResult
runCoherenceSteadyState(bool smoke)
{
    const std::uint64_t budget = smoke ? 20000 : 150000;
    double seconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    const int rounds = smoke ? 1 : 3;
    for (int round = 0; round < rounds; ++round) {
        Simulator sim(1234 + static_cast<std::uint64_t>(round));
        PointToPointNetwork net(sim, simulatedConfig());
        CoherenceEngine eng(sim, net, /*directory_mode=*/true);
        ClosedLoop loop(sim, eng, 99 + static_cast<std::uint64_t>(round),
                        budget);

        // Prime: 4 outstanding accesses per site, then let the
        // engine reach steady state before the timed region. The
        // smoke budget drains by about 6.5 us, so it primes for 2 us.
        const SiteId sites = net.config().siteCount();
        for (int depth = 0; depth < 4; ++depth) {
            for (SiteId s = 0; s < sites; ++s)
                loop.issue(s);
        }
        sim.run(sim.now() + (smoke ? 2 : 40) * tickUs);

        const std::uint64_t ev0 = sim.events().executed();
        const std::uint64_t allocs0 = heapAllocs();
        const Clock::time_point t0 = Clock::now();
        sim.run();
        seconds += secondsSince(t0);
        events += sim.events().executed() - ev0;
        allocs += heapAllocs() - allocs0;
    }

    CellResult r;
    r.events = events;
    r.eventsPerSec = static_cast<double>(events) / seconds;
    r.allocsPerEvent =
        static_cast<double>(allocs) / static_cast<double>(events);
    return r;
}

// ---------------------------------------------------------------
// Cell 3: uniform-random fig6-style
// ---------------------------------------------------------------

InjectorConfig
uniformCellConfig(double load, std::uint64_t seed, bool smoke)
{
    InjectorConfig cfg;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.load = load;
    cfg.warmup = (smoke ? 200 : 1000) * tickNs;
    cfg.window = (smoke ? 1000 : 6000) * tickNs;
    cfg.seed = seed;
    return cfg;
}

CellResult
runUniformRandom(bool smoke)
{
    double seconds = 0.0;
    std::uint64_t events = 0;
    const int rounds = smoke ? 1 : 3;
    for (int round = 0; round < rounds; ++round) {
        Simulator sim(777 + static_cast<std::uint64_t>(round));
        PointToPointNetwork net(sim, simulatedConfig());
        const InjectorConfig cfg = uniformCellConfig(
            0.5, deriveSeed(42, "hotpath", "uniform"), smoke);
        const Clock::time_point t0 = Clock::now();
        (void)runOpenLoop(sim, net, cfg);
        seconds += secondsSince(t0);
        events += sim.events().executed();
    }
    CellResult r;
    r.events = events;
    r.eventsPerSec = static_cast<double>(events) / seconds;
    return r;
}

// ---------------------------------------------------------------
// --jobs determinism check (test_determinism.cc discipline)
// ---------------------------------------------------------------

/** One sweep of fig6-style cells; the simulated results must be a
 *  pure function of each cell's identity, never of the jobs count. */
std::vector<InjectorResult>
uniformSweep(std::size_t jobs)
{
    const double loads[] = {0.2, 0.4, 0.6};
    std::vector<SweepJob<InjectorResult>> cells;
    for (const double load : loads) {
        const std::uint64_t seed = deriveSeed(
            42, "hotpath-cell", std::to_string(load));
        cells.push_back(SweepJob<InjectorResult>{
            "uniform load " + std::to_string(load), [load, seed] {
                Simulator sim(seed);
                PointToPointNetwork net(sim, simulatedConfig());
                return runOpenLoop(
                    sim, net, uniformCellConfig(load, seed, true));
            }});
    }
    return SweepRunner(jobs, /*progress=*/false)
        .run("hotpath-determinism", std::move(cells));
}

bool
identical(const InjectorResult &a, const InjectorResult &b)
{
    return a.offeredLoadPct == b.offeredLoadPct
        && a.meanLatencyNs == b.meanLatencyNs
        && a.maxLatencyNs == b.maxLatencyNs
        && a.p50LatencyNs == b.p50LatencyNs
        && a.p99LatencyNs == b.p99LatencyNs
        && a.deliveredBytesPerNsPerSite == b.deliveredBytesPerNsPerSite
        && a.measuredPackets == b.measuredPackets;
}

bool
checkJobsDeterminism()
{
    const std::vector<InjectorResult> serial = uniformSweep(1);
    const std::vector<InjectorResult> parallel = uniformSweep(3);
    if (serial.size() != parallel.size())
        return false;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        if (!identical(serial[i], parallel[i])) {
            std::fprintf(stderr,
                         "bench_micro_hotpath: cell %zu differs "
                         "between --jobs 1 and --jobs 3\n",
                         i);
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    installSweepSignalHandlers();
    const bool smoke = stripSwitch(argc, argv, "smoke");

    const CellResult sched = runScheduleHeavy(smoke);
    const CellResult coh = runCoherenceSteadyState(smoke);
    const CellResult uniform = runUniformRandom(smoke);
    const double speedup = baselineCoherenceEventsPerSec > 0.0
        ? coh.eventsPerSec / baselineCoherenceEventsPerSec
        : 0.0;

    char json[512];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"hotpath\","
        "\"schedule_heavy_events_per_sec\":%s,"
        "\"schedule_heavy_allocs_per_event\":%s,"
        "\"coherence_steady_events_per_sec\":%s,"
        "\"coherence_steady_allocs_per_event\":%s,"
        "\"uniform_random_events_per_sec\":%s,"
        "\"baseline_coherence_steady_events_per_sec\":%s,"
        "\"coherence_steady_speedup\":%s}",
        jsonNumber("%.6e", sched.eventsPerSec).c_str(),
        jsonNumber("%.6f", sched.allocsPerEvent).c_str(),
        jsonNumber("%.6e", coh.eventsPerSec).c_str(),
        jsonNumber("%.6f", coh.allocsPerEvent).c_str(),
        jsonNumber("%.6e", uniform.eventsPerSec).c_str(),
        jsonNumber("%.6e", baselineCoherenceEventsPerSec).c_str(),
        jsonNumber("%.3f", speedup).c_str());
    std::string error;
    if (!jsonValid(json, &error)) {
        std::fprintf(stderr,
                     "bench_micro_hotpath: result is not valid JSON: "
                     "%s\n",
                     error.c_str());
        return 1;
    }
    std::printf("%s\n", json);
    std::fflush(stdout);

    // A cell whose timed region ran nothing measured nothing.
    bool ok = true;
    const std::pair<const char *, const CellResult *> cells[] = {
        {"schedule-heavy", &sched},
        {"coherence-steady-state", &coh},
        {"uniform-random", &uniform}};
    for (const auto &[cell, result] : cells) {
        if (result->events == 0) {
            std::fprintf(stderr,
                         "bench_micro_hotpath: %s cell timed 0 events\n",
                         cell);
            ok = false;
        }
    }
    if (!smoke && ok) {
        if (std::FILE *f = std::fopen("BENCH_hotpath.json", "w")) {
            std::fprintf(f, "%s\n", json);
            std::fclose(f);
        } else {
            std::fprintf(stderr,
                         "bench_micro_hotpath: cannot write "
                         "BENCH_hotpath.json\n");
        }
    }

    if (smoke) {
        // Steady-state allocation budget: the schedule/execute path
        // must not allocate at all once warmed up.
        constexpr double allocBudgetPerEvent = 0.0;
        if (sched.allocsPerEvent > allocBudgetPerEvent) {
            std::fprintf(stderr,
                         "bench_micro_hotpath: schedule-heavy cell "
                         "allocated %.6f times per event "
                         "(budget %.1f)\n",
                         sched.allocsPerEvent, allocBudgetPerEvent);
            ok = false;
        }
        if (!checkJobsDeterminism())
            ok = false;
    }
    if (!ok)
        return 1;
    return sweepExitStatus();
}
