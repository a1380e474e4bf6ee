/**
 * @file
 * The event core's depth curve: the hold model at 64, 4 096, 65 536
 * and 524 288 pending events, timed with steady_clock and emitted
 * both to stdout and to BENCH_simcore.json, so the cost of one event
 * against queue depth is tracked across PRs. Each executed event only
 * reschedules itself at now + U[1 tick, 2 us]; the curve reports wall
 * ns per executed event.
 *
 * This tracks the simulator's own performance, not the modelled
 * system.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "harness.hh"
#include "sim/event.hh"
#include "sim/random.hh"
#include "sim/telemetry/json.hh"

using namespace macrosim;

namespace
{

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

} // namespace

int
main(int argc, char **argv)
{
    bench::exitOnFatalError();
    bench::rejectUnknownFlags(argc, argv);
    emitSimcorePin();
    return 0;
}
