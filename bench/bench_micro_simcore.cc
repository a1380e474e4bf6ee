/**
 * @file
 * Microbenchmarks of the simulation core. Two layers:
 *
 * 1. The event core's depth curve: the hold model at 64, 4 096,
 *    65 536 and 524 288 pending events, timed with steady_clock and
 *    emitted both to stdout and to BENCH_simcore.json, so the cost of
 *    one event against queue depth is tracked across PRs. Each
 *    executed event only reschedules itself at now + U[1 tick, 2 us];
 *    the curve reports wall ns per executed event.
 * 2. google-benchmark micros of the queue, RNG, channel reservation
 *    and a full point-to-point packet path.
 *
 * These track the simulator's own performance, not the modelled
 * system.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hh"
#include "net/pt2pt.hh"
#include "sim/event.hh"
#include "sim/random.hh"
#include "sim/telemetry/json.hh"
#include "workloads/patterns.hh"

using namespace macrosim;

namespace
{

// ---------------------------------------------------------------
// The hold model (BENCH_simcore.json)
// ---------------------------------------------------------------

/** Events each depth of the curve times. */
constexpr std::uint64_t holdEvents = 3'000'000;

/** Wall ns per executed event of the hold model at @p depth pending:
 *  prefill @p depth events, then time holdEvents executions. */
double
holdNsPerEvent(std::size_t depth)
{
    EventQueue q;
    Rng rng(depth);
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(1 + rng.below(bench::HoldEvent::holdSpread),
                   bench::HoldEvent{&q, &rng});
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < holdEvents; ++i)
        q.runOne();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count();
    if (q.executed() != holdEvents || q.size() != depth)
        return std::nan("");
    return ns / static_cast<double>(holdEvents);
}

/**
 * Run the hold model at each depth and emit the pin to stdout and to
 * BENCH_simcore.json in the working directory.
 */
void
emitSimcorePin()
{
    const std::size_t depths[] = {64, 4096, 65536, 524288};
    JsonObject fields;
    fields.number("hold_events", static_cast<double>(holdEvents));
    double shallow = 0.0;
    double deep = 0.0;
    for (const std::size_t depth : depths) {
        const double ns = holdNsPerEvent(depth);
        fields.number("hold_" + std::to_string(depth) + "_ns_per_event",
                      ns);
        if (depth == depths[0])
            shallow = ns;
        deep = ns;
    }
    fields.number("hold_deepest_over_shallowest", deep / shallow);
    const std::string pin = bench::pinJson("simcore", fields);
    std::fputs(pin.c_str(), stdout);
    std::fflush(stdout);
    bench::writeJsonFile("BENCH_simcore.json", pin);
}

// ---------------------------------------------------------------
// google-benchmark micros
// ---------------------------------------------------------------

/**
 * Cancellation churn: ~75% of scheduled events are cancelled from a
 * random live set while scheduling continues, then the queue drains.
 * This is the token-ring grant-re-arm pattern at maximum intensity,
 * and the scenario the tombstone-compacting arena is built for.
 */
std::uint64_t
scenarioCancelHeavy()
{
    EventQueue q;
    Rng rng(42);
    int sink = 0;
    std::uint64_t ops = 0;
    std::vector<EventId> live;
    live.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
        live.push_back(
            q.schedule(q.now() + 1 + static_cast<Tick>(rng.below(997)),
                       [&sink] { ++sink; }));
        ++ops;
        if (live.size() >= 2 && (i & 1)) {
            for (int burst = 0; burst < 2 && !live.empty(); ++burst) {
                const std::size_t k = rng.below(live.size());
                q.cancel(live[k]);
                ++ops;
                live[k] = live.back();
                live.pop_back();
            }
        }
    }
    ops += q.runUntil();
    benchmark::DoNotOptimize(sink);
    return ops;
}

/**
 * Same-tick bursts: 16 ticks x 256 FIFO events each — the pattern a
 * saturated network produces, and the worst case for heap churn at a
 * single timestamp.
 */
std::uint64_t
scenarioSameTickBurst()
{
    EventQueue q;
    int sink = 0;
    for (int t = 0; t < 16; ++t) {
        for (int i = 0; i < 256; ++i)
            q.schedule(static_cast<Tick>(t * 10), [&sink] { ++sink; });
    }
    q.runUntil();
    benchmark::DoNotOptimize(sink);
    return 2 * 16 * 256;
}

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            q.schedule(static_cast<Tick>(i * 7 % 997),
                       [&sink] { ++sink; });
        q.runUntil();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(scenarioCancelHeavy());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void
BM_EventQueueSameTickBurst(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(scenarioSameTickBurst());
    }
    state.SetItemsProcessed(state.iterations() * 16 * 256);
}
BENCHMARK(BM_EventQueueSameTickBurst);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(42);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc += rng.next();
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

void
BM_ChannelTransmit(benchmark::State &state)
{
    OpticalChannel ch(2, 250);
    Tick t = 0;
    for (auto _ : state) {
        t = ch.transmit(t, 64);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelTransmit);

void
BM_PointToPointPacket(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Simulator sim(1);
        PointToPointNetwork net(sim, simulatedConfig());
        net.setDefaultHandler([](const Message &) {});
        Rng rng(7);
        state.ResumeTiming();
        for (int i = 0; i < 512; ++i) {
            Message m;
            m.src = static_cast<SiteId>(rng.below(64));
            m.dst = static_cast<SiteId>(rng.below(64));
            net.inject(m);
        }
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_PointToPointPacket);

void
BM_DestinationGenerator(benchmark::State &state)
{
    MacrochipGeometry geom(8, 8);
    DestinationGenerator gen(
        static_cast<TrafficPattern>(state.range(0)), geom);
    Rng rng(3);
    SiteId acc = 0;
    for (auto _ : state)
        acc ^= gen.next(acc % 64, rng);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_DestinationGenerator)->DenseRange(0, 4);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    emitSimcorePin();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
