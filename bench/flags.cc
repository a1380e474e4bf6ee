#include "flags.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "sim/logging.hh"

namespace macrosim::bench
{

namespace
{

/**
 * Strict unsigned parse shared by every numeric flag: the whole
 * string must be one non-negative integer (any strtoull base).
 * Rejects what strtoull quietly accepts — empty strings, trailing
 * garbage ("4x"), negative values (which strtoull wraps), leading
 * whitespace — and out-of-range values uniformly, all via fatal()
 * naming the offending flag.
 */
std::uint64_t
parseUnsignedOrFatal(const char *what, const std::string &text)
{
    const char *s = text.c_str();
    if (*s == '\0' || std::isspace(static_cast<unsigned char>(*s))
        || *s == '-' || *s == '+') {
        fatal(what, " must be an unsigned integer, got '", text, "'");
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 0);
    if (end == s || *end != '\0')
        fatal(what, " must be an unsigned integer, got '", text, "'");
    if (errno == ERANGE)
        fatal(what, " is out of range, got '", text, "'");
    return static_cast<std::uint64_t>(v);
}

std::terminate_handler defaultTerminate = nullptr;

void
terminateOnFatalError()
{
    try {
        if (const std::exception_ptr e = std::current_exception())
            std::rethrow_exception(e);
    } catch (const FatalError &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "fatal: %s\n", e.what());
        // _Exit, not exit: a sweep or PDES worker may still be
        // running, and no static destructor may race it.
        std::_Exit(2);
    } catch (...) {
    }
    defaultTerminate();
}

} // namespace

void
exitOnFatalError()
{
    if (std::get_terminate() != terminateOnFatalError)
        defaultTerminate = std::set_terminate(terminateOnFatalError);
}

bool
stripValueFlag(int &argc, char **argv, const char *name,
               std::string *value)
{
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc; ++i) {
        int consumed = 0;
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size())
            == 0) {
            *value = argv[i] + prefix.size();
            consumed = 1;
        } else if (std::strcmp(argv[i],
                               (std::string("--") + name).c_str())
                       == 0
                   && i + 1 < argc) {
            *value = argv[i + 1];
            consumed = 2;
        } else {
            continue;
        }
        for (int j = i; j + consumed <= argc; ++j)
            argv[j] = argv[j + consumed];
        argc -= consumed;
        return true;
    }
    return false;
}

bool
stripSwitch(int &argc, char **argv, const char *name)
{
    const std::string flag = std::string("--") + name;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag.c_str()) != 0)
            continue;
        for (int j = i; j + 1 <= argc; ++j)
            argv[j] = argv[j + 1];
        --argc;
        return true;
    }
    return false;
}

bool
stripNumberFlag(int &argc, char **argv, const char *name,
                std::uint64_t *value)
{
    std::string text;
    if (!stripValueFlag(argc, argv, name, &text))
        return false;
    *value = parseUnsignedOrFatal(
        (std::string("--") + name).c_str(), text);
    return true;
}

void
rejectUnknownFlags(int argc, char **argv)
{
    if (argc <= 1)
        return;
    std::string unknown;
    for (int i = 1; i < argc; ++i)
        unknown += std::string(" ") + argv[i];
    std::fprintf(stderr, "%s: unknown argument(s):%s\n", argv[0],
                 unknown.c_str());
    std::exit(2);
}

std::size_t
stripJobsFlag(int &argc, char **argv)
{
    std::uint64_t v = 0;
    if (!stripNumberFlag(argc, argv, "jobs", &v)) {
        const char *env = std::getenv("MACROSIM_JOBS");
        if (env != nullptr && *env != '\0')
            v = parseUnsignedOrFatal("MACROSIM_JOBS", env);
    }
    return static_cast<std::size_t>(v);
}

std::uint64_t
instructionsArg(int &argc, char **argv, std::uint64_t fallback)
{
    if (argc < 2 || std::strncmp(argv[1], "--", 2) == 0)
        return fallback;
    const std::uint64_t v =
        parseUnsignedOrFatal("instructions/core", argv[1]);
    if (v == 0)
        fatal("instructions/core must be positive, got '", argv[1], "'");
    for (int j = 1; j + 1 <= argc; ++j)
        argv[j] = argv[j + 1];
    --argc;
    return v;
}

std::uint64_t
seedArg(int &argc, char **argv, std::uint64_t fallback)
{
    std::string text;
    if (!stripValueFlag(argc, argv, "seed", &text)) {
        const char *env = std::getenv("MACROSIM_SEED");
        if (env == nullptr || *env == '\0')
            return fallback;
        text = env;
    }
    return parseUnsignedOrFatal("seedArg: --seed / MACROSIM_SEED",
                                text);
}

namespace
{

/** Set by simStatsArg(); the env fallback is evaluated lazily. */
bool simStatsFlag = false;

bool
simStatsEnv()
{
    const char *env = std::getenv("MACROSIM_SIM_STATS");
    return env != nullptr && *env != '\0'
           && std::strcmp(env, "0") != 0;
}

} // namespace

bool
simStatsArg(int &argc, char **argv)
{
    if (stripSwitch(argc, argv, "sim-stats"))
        simStatsFlag = true;
    return simStatsEnabled();
}

bool
simStatsEnabled()
{
    return simStatsFlag || simStatsEnv();
}

TelemetryOptions
telemetryArgs(int &argc, char **argv)
{
    TelemetryOptions opts;
    stripValueFlag(argc, argv, "trace", &opts.tracePath);
    stripValueFlag(argc, argv, "metrics", &opts.metricsPath);
    std::string period;
    if (stripValueFlag(argc, argv, "metrics-period", &period)) {
        const std::uint64_t v =
            parseUnsignedOrFatal("--metrics-period", period);
        if (v == 0)
            fatal("telemetryArgs: --metrics-period must be a "
                  "positive tick count, got '", period, "'");
        opts.metricsPeriod = static_cast<Tick>(v);
    }
    opts.profile = stripSwitch(argc, argv, "profile");
    opts.smoke = stripSwitch(argc, argv, "smoke");
    return opts;
}

BenchFlags
benchFlags(int &argc, char **argv, std::uint64_t seed_fallback)
{
    exitOnFatalError();
    BenchFlags flags;
    flags.jobs = stripJobsFlag(argc, argv);
    flags.simStats = simStatsArg(argc, argv);
    flags.seed = seedArg(argc, argv, seed_fallback);
    flags.telemetry = telemetryArgs(argc, argv);
    return flags;
}

} // namespace macrosim::bench
