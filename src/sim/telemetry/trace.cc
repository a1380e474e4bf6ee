#include "sim/telemetry/trace.hh"

#include <cinttypes>
#include <cstdio>

#include "sim/logging.hh"
#include "sim/telemetry/registry.hh"

namespace macrosim
{

namespace
{

/**
 * Ticks (ps) to microseconds as exact decimal fixed-point: integer
 * quotient, '.', six-digit remainder. No floating point, so traces
 * are bit-reproducible across platforms.
 */
std::string
ticksToUs(Tick ps)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64,
                  ps / 1'000'000, ps % 1'000'000);
    return buf;
}

} // namespace

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
}

void
TraceSink::push(TraceEvent ev)
{
    if (events_.size() >= capacity_) {
        events_.pop_front();
        if (++dropped_ == 1) {
            warn_once("TraceSink: ring capacity (", capacity_,
                      " events) exceeded; oldest events are being "
                      "dropped — the trace is truncated (see the "
                      "trace_dropped_events metadata row and the "
                      "<prefix>.dropped stat)");
        }
    }
    events_.push_back(std::move(ev));
}

void
TraceSink::regStats(StatRegistry &registry,
                    const std::string &prefix) const
{
    const TraceSink *s = this;
    registry.add(prefix + ".events",
                 [s] { return static_cast<double>(s->size()); });
    registry.add(prefix + ".dropped",
                 [s] { return static_cast<double>(s->dropped()); });
}

void
TraceSink::span(std::string name, std::string cat, std::uint32_t pid,
                std::uint32_t tid, Tick start, Tick dur,
                const std::vector<std::pair<std::string, std::string>>
                    &args)
{
    TraceEvent ev;
    ev.ph = TraceEvent::Phase::Complete;
    ev.name = std::move(name);
    ev.cat = std::move(cat);
    ev.pid = pid;
    ev.tid = tid;
    ev.ts = start;
    ev.dur = dur;
    for (const auto &[key, value] : args) {
        ev.args += (ev.args.empty() ? "\"" : ",\"") + jsonEscape(key)
            + "\":" + value;
    }
    push(std::move(ev));
}

void
TraceSink::counter(std::string name, std::uint32_t pid, Tick ts,
                   double value)
{
    TraceEvent ev;
    ev.ph = TraceEvent::Phase::Counter;
    ev.name = std::move(name);
    ev.pid = pid;
    ev.ts = ts;
    ev.args = "\"value\":" + jsonNumber(value);
    push(std::move(ev));
}

void
TraceSink::flowStart(std::string name, std::uint32_t pid,
                     std::uint32_t tid, Tick ts, std::uint64_t flow_id)
{
    TraceEvent ev;
    ev.ph = TraceEvent::Phase::FlowStart;
    ev.name = std::move(name);
    ev.pid = pid;
    ev.tid = tid;
    ev.ts = ts;
    ev.flowId = flow_id;
    push(std::move(ev));
}

void
TraceSink::flowFinish(std::string name, std::uint32_t pid,
                      std::uint32_t tid, Tick ts,
                      std::uint64_t flow_id)
{
    TraceEvent ev;
    ev.ph = TraceEvent::Phase::FlowFinish;
    ev.name = std::move(name);
    ev.pid = pid;
    ev.tid = tid;
    ev.ts = ts;
    ev.flowId = flow_id;
    push(std::move(ev));
}

void
TraceSink::instant(std::string name, std::string cat,
                   std::uint32_t pid, std::uint32_t tid, Tick ts)
{
    TraceEvent ev;
    ev.ph = TraceEvent::Phase::Instant;
    ev.name = std::move(name);
    ev.cat = std::move(cat);
    ev.pid = pid;
    ev.tid = tid;
    ev.ts = ts;
    push(std::move(ev));
}

void
TraceSink::processName(std::uint32_t pid, const std::string &name)
{
    TraceEvent ev;
    ev.ph = TraceEvent::Phase::Metadata;
    ev.name = "process_name";
    ev.pid = pid;
    ev.args = "\"name\":\"" + jsonEscape(name) + '"';
    push(std::move(ev));
}

void
TraceSink::threadName(std::uint32_t pid, std::uint32_t tid,
                      const std::string &name)
{
    TraceEvent ev;
    ev.ph = TraceEvent::Phase::Metadata;
    ev.name = "thread_name";
    ev.pid = pid;
    ev.tid = tid;
    ev.args = "\"name\":\"" + jsonEscape(name) + '"';
    push(std::move(ev));
}

void
TraceSink::append(TraceSink &&other)
{
    for (TraceEvent &ev : other.events_)
        push(std::move(ev));
    dropped_ += other.dropped_;
    other.events_.clear();
    other.dropped_ = 0;
}

void
TraceSink::writeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &ev : events_) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"ph\":\"" << static_cast<char>(ev.ph) << "\",\"name\":\""
           << jsonEscape(ev.name) << "\",\"cat\":\""
           << jsonEscape(ev.cat) << "\",\"pid\":" << ev.pid
           << ",\"tid\":" << ev.tid;
        // Metadata rows carry no timestamp; everything else does.
        if (ev.ph != TraceEvent::Phase::Metadata)
            os << ",\"ts\":" << ticksToUs(ev.ts);
        if (ev.ph == TraceEvent::Phase::Complete)
            os << ",\"dur\":" << ticksToUs(ev.dur);
        if (ev.ph == TraceEvent::Phase::FlowStart ||
            ev.ph == TraceEvent::Phase::FlowFinish) {
            os << ",\"id\":" << ev.flowId;
            // "f" needs bp:"e" so Perfetto binds the arrow to the
            // enclosing span rather than the next one.
            if (ev.ph == TraceEvent::Phase::FlowFinish)
                os << ",\"bp\":\"e\"";
        }
        if (!ev.args.empty())
            os << ",\"args\":{" << ev.args << "}";
        os << "}";
    }
    if (dropped_ > 0) {
        if (!first)
            os << ",\n";
        os << "{\"ph\":\"M\",\"name\":\"trace_dropped_events\","
              "\"cat\":\"sim\",\"pid\":0,\"tid\":0,\"args\":{"
              "\"count\":"
           << dropped_ << "}}";
    }
    os << "]}\n";
}

} // namespace macrosim
