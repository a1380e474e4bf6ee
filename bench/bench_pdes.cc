/**
 * @file
 * Parallel-in-model PDES speedup bench: one 16x16 open-loop injector
 * simulation partitioned across {1, 2, 4} logical processes (one
 * worker thread per LP), timed wall-clock.
 *
 * Two numbers matter:
 *  - correctness: every LP count must produce a bit-identical
 *    InjectorResult (the binary exits non-zero otherwise), and
 *  - speedup: events/sec at 4 LPs over the single-LP run.
 *
 * Timed points run with metrics timing on, so the per-LP horizon
 * breakdown (busy vs blocked wall time, deepest drain) lands in
 * BENCH_pdes.json next to the speedup, with the lookahead and the
 * 2-LP mean EOT advance (near 1 lookahead per round when the LPs run
 * side by side, near 2 when they take turns) — the perf trajectory
 * records *why* a point is slow. --sim-stats prints each point's
 * load-balance report (PdesLoadReport).
 *
 * Shared harness telemetry flags:
 *   --trace=<file>    capture the 4-LP run's parallel Perfetto
 *                     timeline (PdesTracer) — captured twice, with 1
 *                     and 3 worker threads, and the two serializations
 *                     must be byte-identical (exit non-zero
 *                     otherwise); the JSON is self-validated before
 *                     writing.
 *   --metrics=<file>  dump the 4-LP point's pdes.* stat registry.
 *   --profile         print each timed point's per-LP event-loop
 *                     profile, folded in fixed LP order.
 *
 * --smoke shrinks the window for CI (the smoke run is also wired
 * into the MACROSIM_SANITIZE=thread configuration, where it doubles
 * as a TSan exercise of the horizon protocol under real load);
 * full runs pin their measurement in BENCH_pdes.json.
 *
 * --lp N / --threads-per-sim T time one extra point with N logical
 * processes (1..256, the model's sites) on T worker threads (T
 * defaults to N); a malformed or zero value is an error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "harness.hh"
#include "net/pt2pt.hh"
#include "sim/logging.hh"
#include "sim/telemetry/json.hh"
#include "workloads/packet_injector.hh"

namespace
{

using namespace macrosim;
using namespace macrosim::bench;
using Clock = std::chrono::steady_clock;

struct PdesBenchPoint
{
    std::uint32_t lps = 1;
    std::size_t threads = 1;
    PdesInjectorResult run;
    double wallSec = 0.0;
    double eventsPerSec = 0.0;
    std::string profile;
    std::string metrics;
};

InjectorConfig
benchConfig(bool smoke)
{
    InjectorConfig cfg;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.load = 0.10;
    cfg.warmup = (smoke ? 300 : 2000) * tickNs;
    cfg.window = (smoke ? 1500 : 10000) * tickNs;
    cfg.seed = 42;
    return cfg;
}

PdesNetworkFactory
benchFactory()
{
    return [](Simulator &sim) -> std::unique_ptr<Network> {
        return std::make_unique<PointToPointNetwork>(
            sim, scaledConfig(16, 16));
    };
}

PdesBenchPoint
timePoint(const InjectorConfig &cfg, std::uint32_t lps,
          std::size_t threads, const TelemetryOptions &topts)
{
    PdesBenchPoint p;
    p.lps = lps;
    p.threads = threads;
    PdesObservability obs;
    obs.timing = true;
    obs.profile = topts.profile;
    if (topts.profile)
        obs.profileOut = &p.profile;
    if (!topts.metricsPath.empty())
        obs.metricsOut = &p.metrics;
    const Clock::time_point t0 = Clock::now();
    p.run = runOpenLoopPdes(benchFactory(), cfg, lps, threads, &obs);
    const Clock::time_point t1 = Clock::now();
    p.wallSec =
        std::chrono::duration<double>(t1 - t0).count();
    p.eventsPerSec = p.wallSec > 0.0
        ? static_cast<double>(p.run.eventsExecuted) / p.wallSec
        : 0.0;
    return p;
}

/**
 * Capture the PDES Perfetto timeline of one untimed run and return
 * its serialized JSON. Called twice with different worker-thread
 * counts: the two strings must be byte-identical (the PdesTracer
 * determinism bar).
 */
std::string
captureTrace(const InjectorConfig &cfg, std::uint32_t lps,
             std::size_t threads)
{
    TraceSink sink;
    PdesObservability obs;
    obs.trace = &sink;
    runOpenLoopPdes(benchFactory(), cfg, lps, threads, &obs);
    std::ostringstream os;
    sink.writeJson(os);
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    exitOnFatalError();
    const TelemetryOptions topts = telemetryArgs(argc, argv);
    const bool simStats = simStatsArg(argc, argv);
    const bool smoke = topts.smoke;
    // The extra point's LPs partition the 16x16 model's sites.
    constexpr std::uint64_t maxLps = 16 * 16;
    std::uint64_t extra_lp = 0;
    std::uint64_t extra_threads = 0;
    if (stripNumberFlag(argc, argv, "lp", &extra_lp)
        && (extra_lp == 0 || extra_lp > maxLps)) {
        fatal("bench_pdes: --lp must be 1..", maxLps, ", got ",
              extra_lp);
    }
    if (stripNumberFlag(argc, argv, "threads-per-sim", &extra_threads)
        && extra_threads == 0) {
        fatal("bench_pdes: --threads-per-sim must be positive");
    }
    rejectUnknownFlags(argc, argv);

    const InjectorConfig cfg = benchConfig(smoke);
    std::vector<PdesBenchPoint> points;
    for (const std::uint32_t lps : {1u, 2u, 4u})
        points.push_back(timePoint(cfg, lps, lps, topts));
    if (extra_lp > 0) {
        points.push_back(timePoint(
            cfg, static_cast<std::uint32_t>(extra_lp),
            extra_threads > 0 ? extra_threads : extra_lp, topts));
    }

    bool ok = true;
    for (const PdesBenchPoint &p : points) {
        std::printf("pdes lp=%-2u threads=%-2zu  %10.6f s  "
                    "%.3e events/s  cross=%llu  mean=%.3f ns  "
                    "delivered=%.2f%%\n",
                    p.lps, p.threads, p.wallSec, p.eventsPerSec,
                    static_cast<unsigned long long>(p.run.crossPosts),
                    p.run.result.meanLatencyNs,
                    p.run.result.deliveredPct);
        if (!points.front().run.result.identicalTo(p.run.result)) {
            std::fprintf(stderr,
                         "bench_pdes: lp=%u threads=%zu result "
                         "differs from the single-LP run\n",
                         p.lps, p.threads);
            ok = false;
        }
        if (simStats)
            p.run.load.print(std::cerr);
        if (topts.profile && !p.profile.empty())
            std::cerr << p.profile;
    }

    // Perfetto capture: two untimed runs of the largest point on
    // different worker-thread counts must serialize byte-identical
    // trace JSON — the observability layer is held to the same
    // determinism bar as the results (DESIGN.md §12).
    if (topts.tracing()) {
        const auto trace_lps =
            static_cast<std::uint32_t>(extra_lp > 0 ? extra_lp : 4);
        const std::string t1 = captureTrace(cfg, trace_lps, 1);
        const std::string t3 = captureTrace(cfg, trace_lps, 3);
        if (t1 != t3) {
            std::fprintf(stderr,
                         "bench_pdes: trace JSON differs between 1 "
                         "and 3 worker threads (%zu vs %zu bytes)\n",
                         t1.size(), t3.size());
            ok = false;
        }
        writeJsonFile(topts.tracePath, t1);
        std::fprintf(stderr,
                     "bench_pdes: wrote %s (%zu bytes, lp=%u, "
                     "thread-count invariant: %s)\n",
                     topts.tracePath.c_str(), t1.size(), trace_lps,
                     t1 == t3 ? "yes" : "NO");
    }
    if (!topts.metricsPath.empty())
        writeTextFile(topts.metricsPath, points.back().metrics);

    const double base = points[0].eventsPerSec;
    const double speedup2 = base > 0.0
        ? points[1].eventsPerSec / base : 0.0;
    const double speedup4 = base > 0.0
        ? points[2].eventsPerSec / base : 0.0;
    std::printf("pdes speedup: 2 LPs %.2fx, 4 LPs %.2fx (the pin's "
                "host.thread_scaling_4 bounds both)\n",
                speedup2, speedup4);

    // The 4-LP point's per-LP breakdown goes into the pinned JSON:
    // busy (drain+exec) and blocked wall per LP sum to roughly
    // wall_sec_4lp x active workers, so a slow point explains itself.
    const PdesBenchPoint &p2 = points[1];
    const PdesBenchPoint &p4 = points[2];
    const PdesLoadReport &load4 = p4.run.load;
    // The deepest drain at a point: the largest batch of posts one
    // channel handed over, which is what its buffers grow to.
    const auto peakDepth = [](const PdesLoadReport &load) {
        std::uint64_t peak = 0;
        for (const PdesLpLoad &l : load.lps)
            peak = std::max(peak, l.peakDepth);
        return static_cast<double>(peak);
    };
    const auto perLp = [&load4](auto value) {
        std::vector<double> v;
        for (const PdesLpLoad &l : load4.lps)
            v.push_back(static_cast<double>(value(l)));
        return v;
    };
    JsonObject fields;
    fields.string("grid", "16x16")
        .number("load", cfg.load)
        .number("lookahead_ticks", static_cast<double>(load4.lookahead))
        .number("eot_advance_2lp", p2.run.load.eotAdvance)
        .number("events_per_sec_1lp", points[0].eventsPerSec)
        .number("events_per_sec_2lp", points[1].eventsPerSec)
        .number("events_per_sec_4lp", points[2].eventsPerSec)
        .number("speedup_2lp", speedup2)
        .number("speedup_4lp", speedup4)
        .number("spsc_peak_depth_2lp", peakDepth(p2.run.load))
        .number("cross_posts_4lp", static_cast<double>(p4.run.crossPosts))
        .number("spsc_peak_depth_4lp", peakDepth(load4))
        .number("wall_sec_4lp", p4.wallSec)
        .number("blocked_frac_4lp", load4.blockedFraction)
        .number("imbalance_4lp", load4.eventImbalance)
        .number("critical_lp_4lp", static_cast<double>(load4.criticalLp))
        .numbers("lp_events_4lp",
                 perLp([](const PdesLpLoad &l) { return l.executed; }))
        .numbers("lp_drain_wall_ns_4lp",
                 perLp([](const PdesLpLoad &l) { return l.drainWallNs; }))
        .numbers("lp_exec_wall_ns_4lp",
                 perLp([](const PdesLpLoad &l) { return l.execWallNs; }))
        .numbers("lp_blocked_wall_ns_4lp",
                 perLp([](const PdesLpLoad &l) {
                     return l.blockedWallNs;
                 }))
        .numbers("lp_posts_4lp",
                 perLp([](const PdesLpLoad &l) { return l.posts; }))
        .boolean("bit_identical", ok);
    const std::string pin = pinJson("pdes", fields);
    std::fputs(pin.c_str(), stdout);
    std::fflush(stdout);
    if (!smoke)
        writeJsonFile("BENCH_pdes.json", pin);
    if (!ok)
        return 1;
    return 0;
}
