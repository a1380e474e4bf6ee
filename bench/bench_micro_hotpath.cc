/**
 * @file
 * End-to-end hot-path throughput bench with a heap-counting hook.
 *
 * Pins four cells to BENCH_hotpath.json (alongside the
 * BENCH_simcore.json flow) so the events/sec trajectory of the
 * allocation-free hot path is tracked across PRs:
 *
 *  - schedule-heavy: the raw schedule/execute path with
 *    deliverAt-sized captures (a Message payload per event), the
 *    pattern every topology's delivery path produces. Steady-state
 *    allocations-per-event is measured with a global operator-new
 *    counter and must be zero: captures live in the event arena's
 *    inline callback storage, never on the heap.
 *  - deep-hold: the hold model at 65 536 pending events, where the
 *    queue's far tier (the rung's buckets, the top and their block
 *    pool) and the chunked slot arena do the work. It has the same
 *    zero allocations-per-event budget once warmed up.
 *  - coherence-steady-state: a closed-loop directory-mode
 *    CoherenceEngine over the point-to-point network, issue/retire
 *    at a fixed outstanding-transaction depth — the txns_/lineLocks_/
 *    outstanding_/directory flat-table path.
 *  - uniform-random: a fig6-style open-loop packet-injector cell at
 *    moderate load, the paper's load-sweep inner loop.
 *
 * Every run fails if a cell's timed region runs no events, and writes
 * a non-finite value as null. --smoke runs reduced rounds and
 * enforces the allocation budget of both event-core cells plus a
 * --jobs determinism check
 * (the sweep discipline of test_determinism.cc: per-cell seeds
 * derived from cell identity, results compared bit for bit across
 * jobs counts); it is wired into ctest and meant to run under
 * MACROSIM_SANITIZE=address. A full run writes the pin.
 */

#include <atomic>
#include <chrono>
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
// Cell 2: deep-hold
// ---------------------------------------------------------------

CellResult
runDeepHold(bool smoke)
{
    constexpr std::size_t depth = 65536;
    // A pass turns the queue over four times: about two rungs' worth
    // of simulated time, so the warm-up pass grows every structure
    // to its steady-state footprint.
    constexpr std::uint64_t passEvents = 4 * depth;
    EventQueue q;
    Rng rng(deriveSeed(42, "hotpath", "deep-hold"));
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(1 + rng.below(HoldEvent::holdSpread),
                   HoldEvent{&q, &rng}, "bench.hold");
    for (std::uint64_t i = 0; i < passEvents; ++i)
        q.runOne();

    const std::uint64_t allocs0 = heapAllocs();
    const std::uint64_t ev0 = q.executed();
    const Clock::time_point t0 = Clock::now();
    const int passes = smoke ? 1 : 4;
    for (int pass = 0; pass < passes; ++pass) {
        for (std::uint64_t i = 0; i < passEvents; ++i)
            q.runOne();
    }
    const double seconds = secondsSince(t0);
    const std::uint64_t allocs = heapAllocs() - allocs0;

    CellResult r;
    r.events = q.executed() - ev0;
    r.eventsPerSec = static_cast<double>(r.events) / seconds;
    r.allocsPerEvent =
        static_cast<double>(allocs) / static_cast<double>(r.events);
    return r;
}

// ---------------------------------------------------------------
// Cell 3: coherence-steady-state
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
// Cell 4: uniform-random fig6-style
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
checkJobsDeterminism()
{
    const std::vector<InjectorResult> serial = uniformSweep(1);
    const std::vector<InjectorResult> parallel = uniformSweep(3);
    if (serial.size() != parallel.size())
        return false;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        if (!serial[i].identicalTo(parallel[i])) {
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
    exitOnFatalError();
    const bool smoke = stripSwitch(argc, argv, "smoke");
    rejectUnknownFlags(argc, argv);

    const CellResult sched = runScheduleHeavy(smoke);
    const CellResult hold = runDeepHold(smoke);
    const CellResult coh = runCoherenceSteadyState(smoke);
    const CellResult uniform = runUniformRandom(smoke);

    // Built after every timed region: the host probe inside pinJson()
    // allocates, and no allocation-counted window may see it.
    JsonObject fields;
    fields.number("schedule_heavy_events_per_sec", sched.eventsPerSec)
        .number("schedule_heavy_allocs_per_event", sched.allocsPerEvent)
        .number("deep_hold_events_per_sec", hold.eventsPerSec)
        .number("deep_hold_allocs_per_event", hold.allocsPerEvent)
        .number("coherence_steady_events_per_sec", coh.eventsPerSec)
        .number("coherence_steady_allocs_per_event", coh.allocsPerEvent)
        .number("uniform_random_events_per_sec", uniform.eventsPerSec);
    const std::string pin = pinJson("hotpath", fields);
    std::fputs(pin.c_str(), stdout);
    std::fflush(stdout);

    // A cell whose timed region ran nothing measured nothing.
    bool ok = true;
    const std::pair<const char *, const CellResult *> cells[] = {
        {"schedule-heavy", &sched},
        {"deep-hold", &hold},
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
    if (!smoke && ok)
        writeJsonFile("BENCH_hotpath.json", pin);

    if (smoke) {
        // Steady-state allocation budget: the schedule/execute path
        // must not allocate at all once warmed up, at 4 096 pending
        // events or at 65 536.
        constexpr double allocBudgetPerEvent = 0.0;
        for (const auto &[cell, result] :
             {cells[0], cells[1]}) {
            if (result->allocsPerEvent > allocBudgetPerEvent) {
                std::fprintf(stderr,
                             "bench_micro_hotpath: %s cell allocated "
                             "%.6f times per event (budget %.1f)\n",
                             cell, result->allocsPerEvent,
                             allocBudgetPerEvent);
                ok = false;
            }
        }
        if (!checkJobsDeterminism())
            ok = false;
    }
    if (!ok)
        return 1;
    return 0;
}
