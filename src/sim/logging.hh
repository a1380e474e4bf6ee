/**
 * @file
 * Error-reporting and status-message helpers, in the spirit of gem5's
 * logging.hh.
 *
 * panic()  -- an internal simulator invariant was violated; aborts.
 * fatal()  -- the user asked for something unsatisfiable; throws
 *             FatalError so library users (and tests) can recover.
 * warn()   -- something is suspicious but simulation continues.
 * warn_once() -- as warn(), but latched per call site so a condition
 *             checked in a per-cell loop cannot spam a 600-cell sweep.
 * inform() -- plain status output.
 */

#ifndef MACROSIM_SIM_LOGGING_HH
#define MACROSIM_SIM_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace macrosim
{

/** Thrown by fatal(): a user-level configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

namespace detail
{

/** Fold a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort with a message: a simulator bug, never a user error. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl("", 0, detail::concat(std::forward<Args>(args)...));
}

/** Throw FatalError: the configuration or input is unusable. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print a warning to stderr; simulation continues. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print a status message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** Quiet mode suppresses warn()/inform() output (used by tests). */
void setQuiet(bool quiet);
bool quiet();

/**
 * Print a live status line (sweep progress "[job k/N] … (eta …)" and
 * friends) to stderr. Unlike inform(), status lines are NOT
 * quiet-gated: benches run setQuiet(true) yet still show progress.
 * Calls are serialized internally (worker threads share stderr).
 */
void statusLine(const std::string &line);

/**
 * Total warnings issued since process start. Counts even under
 * quiet(), so tests can assert on warning behaviour (e.g. the
 * warn_once latch) without scraping stderr.
 */
std::uint64_t warningsIssued();

} // namespace macrosim

/**
 * Emit a warning at most once per call site (gem5's warn_once). The
 * latch is a function-local static, so the condition may sit inside
 * a hot loop or a per-simulation constructor without flooding
 * stderr across a parameter sweep. Atomic: sweep worker threads may
 * trip the same call site concurrently.
 */
#define warn_once(...)                                                 \
    do {                                                               \
        static std::atomic<bool> macrosim_warned_once_{false};         \
        if (!macrosim_warned_once_.exchange(                           \
                true, std::memory_order_relaxed)) {                    \
            ::macrosim::warn(__VA_ARGS__);                             \
        }                                                              \
    } while (0)

#endif // MACROSIM_SIM_LOGGING_HH
