/**
 * @file
 * TraceSink: a bounded ring buffer of timeline events serialized as
 * Chrome trace-event JSON, openable directly in ui.perfetto.dev (or
 * chrome://tracing).
 *
 * Event kinds map onto the trace-event phases we need:
 *   - span()      -> "X" complete events (message lifecycle spans),
 *   - counter()   -> "C" counter tracks (channel occupancy, in-flight
 *                    packets),
 *   - flowStart()/flowFinish() -> "s"/"f" flow arrows linking the
 *                    messages of one coherence transaction,
 *   - instant()   -> "i" markers,
 *   - processName()/threadName() -> "M" metadata rows.
 *
 * Timestamps are simulated ticks (1 ps); JSON "ts"/"dur" are written
 * in microseconds as exact decimal fixed-point (ps / 1e6 with six
 * fractional digits), so output is bit-reproducible — no floating-
 * point formatting is involved in the timeline.
 *
 * The ring is bounded: when capacity is exceeded the *oldest* event
 * is dropped (latest activity is usually what's being debugged) and
 * dropped() counts the loss, which writeJson() also records in
 * trace metadata.
 */

#ifndef MACROSIM_SIM_TELEMETRY_TRACE_HH
#define MACROSIM_SIM_TELEMETRY_TRACE_HH

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/telemetry/json.hh"
#include "sim/ticks.hh"

namespace macrosim
{

class StatRegistry;

/** One trace-event record; prefer the typed TraceSink appenders. */
struct TraceEvent
{
    enum class Phase : char
    {
        Complete = 'X',
        Counter = 'C',
        FlowStart = 's',
        FlowFinish = 'f',
        Instant = 'i',
        Metadata = 'M',
    };

    Phase ph = Phase::Instant;
    std::string name;
    std::string cat = "sim";
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    Tick ts = 0;  ///< Simulated ticks (ps).
    Tick dur = 0; ///< Complete events only, ticks.
    std::uint64_t flowId = 0;
    /**
     * The members of the "args" object, rendered ("\"id\":1,
     * \"dst\":2"); empty for none. One string rather than a list of
     * pairs keeps a full ring (1 M events) at about half the memory.
     */
    std::string args;
};

class TraceSink
{
  public:
    explicit TraceSink(std::size_t capacity = 1 << 20);

    /** Append a raw event (ring semantics, see dropped()). */
    void push(TraceEvent ev);

    /**
     * A "X" complete event covering [start, start+dur). Each @p args
     * value is emitted verbatim, so pass a number ("42", "3.5") or a
     * pre-quoted JSON string.
     */
    void span(std::string name, std::string cat, std::uint32_t pid,
              std::uint32_t tid, Tick start, Tick dur,
              const std::vector<std::pair<std::string, std::string>>
                  &args = {});

    /** A point on a counter track (one track per (pid, name)); a
     *  non-finite @p value is written as null (see jsonNumber()). */
    void counter(std::string name, std::uint32_t pid, Tick ts,
                 double value);

    /** Flow arrow start/finish, linked by @p flow_id. */
    void flowStart(std::string name, std::uint32_t pid,
                   std::uint32_t tid, Tick ts, std::uint64_t flow_id);
    void flowFinish(std::string name, std::uint32_t pid,
                    std::uint32_t tid, Tick ts, std::uint64_t flow_id);

    /** An "i" instant marker on a thread track. */
    void instant(std::string name, std::string cat, std::uint32_t pid,
                 std::uint32_t tid, Tick ts);

    /** Name the process / thread rows in the Perfetto UI. */
    void processName(std::uint32_t pid, const std::string &name);
    void threadName(std::uint32_t pid, std::uint32_t tid,
                    const std::string &name);

    std::size_t size() const { return events_.size(); }
    std::size_t capacity() const { return capacity_; }
    /** Events evicted because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Register "<prefix>.events" / "<prefix>.dropped" with @p
     * registry, so a truncated trace shows up in every stat dump —
     * not just in the trace's own metadata. The sink must outlive
     * any dump.
     */
    void regStats(StatRegistry &registry,
                  const std::string &prefix = "trace") const;

    const std::deque<TraceEvent> &events() const { return events_; }

    /** Move every event of @p other into this sink, in order. */
    void append(TraceSink &&other);

    /**
     * Serialize as a complete JSON document:
     * {"displayTimeUnit":"ns","traceEvents":[…]}.
     */
    void writeJson(std::ostream &os) const;

  private:
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
    std::deque<TraceEvent> events_;
};

} // namespace macrosim

#endif // MACROSIM_SIM_TELEMETRY_TRACE_HH
