/**
 * @file
 * Command-line flag parsing shared by every bench binary.
 *
 * All strippers remove the flag (and its value) from argv in place,
 * so each bench's positional arguments (e.g. instructions/core)
 * keep their historical position no matter which flags were given.
 * A malformed value throws FatalError; a bench that has called
 * exitOnFatalError() (benchFlags() does) reports it and exits 2.
 */

#ifndef MACROSIM_BENCH_FLAGS_HH
#define MACROSIM_BENCH_FLAGS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/ticks.hh"

namespace macrosim::bench
{

/**
 * Strip "--<name>=<value>" (or "--<name> <value>") from argv.
 * @return Whether the flag was found; @p value receives the text.
 */
bool stripValueFlag(int &argc, char **argv, const char *name,
                    std::string *value);

/** Strip a bare "--<name>" switch; @return whether it was present. */
bool stripSwitch(int &argc, char **argv, const char *name);

/**
 * Strip "--<name>=<N>" / "--<name> <N>" where N is an unsigned
 * integer (any strtoull base); fatal() on a malformed value.
 * @return Whether the flag was present.
 */
bool stripNumberFlag(int &argc, char **argv, const char *name,
                     std::uint64_t *value);

/**
 * Remove a "--jobs N" (or "--jobs=N") from argv and return N;
 * returns 0 when the flag is absent (SweepRunner then falls back to
 * MACROSIM_JOBS / hardware_concurrency()).
 */
std::size_t stripJobsFlag(int &argc, char **argv);

/**
 * Make an uncaught FatalError print "fatal: <message>" on stderr and
 * exit with status 2, as an unknown flag does, instead of aborting.
 * Any other uncaught exception still goes to the default terminate
 * handler. Idempotent.
 */
void exitOnFatalError();

/**
 * Exit with status 2, naming them on stderr, if any argument left in
 * argv starts with "--".
 * Each bench calls this once it has stripped the flags it takes (a
 * bench that takes none calls it first), before any cell runs or any
 * file is written, so a mistyped flag cannot turn into a full run.
 */
void rejectUnknownFlags(int argc, char **argv);

/**
 * Telemetry knobs shared by every bench binary, stripped from argv
 * by telemetryArgs():
 *   --trace=<file>           write a Perfetto trace-event JSON
 *   --metrics=<file>         write periodic StatRegistry snapshots
 *   --metrics-period=<ticks> snapshot period (default 1 us when
 *                            --metrics is given without it)
 *   --profile                dump the event-loop self-profile table
 *   --smoke                  reduced run for CI smoke tests
 */
struct TelemetryOptions
{
    std::string tracePath;
    std::string metricsPath;
    Tick metricsPeriod = 0;
    bool profile = false;
    bool smoke = false;

    bool tracing() const { return !tracePath.empty(); }
    bool metrics() const
    {
        return metricsPeriod > 0 || !metricsPath.empty();
    }

    /** The snapshot period to use: the flag, or 1 us unset. */
    Tick
    period() const
    {
        return metricsPeriod > 0 ? metricsPeriod : tickUs;
    }
};

/**
 * Strip the telemetry flags (see TelemetryOptions) from argv,
 * leaving positional arguments where the benches expect them.
 */
TelemetryOptions telemetryArgs(int &argc, char **argv);

/**
 * Base-seed knob shared by every bench: strips "--seed N" /
 * "--seed=N" from argv (so positional arguments keep their place)
 * and returns N; falls back to the MACROSIM_SEED environment
 * variable, then to @p fallback — each bench's historical hard-coded
 * seed, so default outputs stay byte-identical. Per-cell seeds are
 * still derived from the base via deriveSeed(base, workload, network).
 */
std::uint64_t seedArg(int &argc, char **argv, std::uint64_t fallback);

/**
 * Event-core observability knob shared by every bench: strips
 * "--sim-stats" from argv and enables per-simulation EventQueueStats
 * reporting. The MACROSIM_SIM_STATS environment variable (any
 * non-empty value except "0") enables it too, flag or no flag.
 *
 * @return Whether stats reporting is now enabled.
 */
bool simStatsArg(int &argc, char **argv);

/** Whether --sim-stats / MACROSIM_SIM_STATS is in effect. */
bool simStatsEnabled();

/** The flags every bench strips, bundled. */
struct BenchFlags
{
    std::size_t jobs = 0;
    std::uint64_t seed = 0;
    bool simStats = false;
    TelemetryOptions telemetry;
};

/**
 * One-call bench setup: calls exitOnFatalError(), then strips
 * --jobs/--seed/--sim-stats and the telemetry flags.
 */
BenchFlags benchFlags(int &argc, char **argv,
                      std::uint64_t seed_fallback);

} // namespace macrosim::bench

#endif // MACROSIM_BENCH_FLAGS_HH
