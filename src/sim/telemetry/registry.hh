/**
 * @file
 * StatRegistry: the hierarchical named-stat registry behind all
 * simulator observability.
 *
 * Every simulation object registers its stats here under a dotted
 * hierarchical name ("net.tring.grants", "arch.site12.l2.misses",
 * "simcore.executed"). Values are pulled at dump time through small
 * capturing callables, so registration is cheap, the hot path never
 * pays for reporting, and a getter can close over whatever state it
 * needs (no `const void *` plumbing).
 *
 * Reports are the flat "name value" dump (optionally prefix-filtered)
 * and periodic mid-simulation snapshots to a time-series CSV (one row
 * per sample tick, one column per stat) via SnapshotRecorder in
 * sampler.hh.
 */

#ifndef MACROSIM_SIM_TELEMETRY_REGISTRY_HH
#define MACROSIM_SIM_TELEMETRY_REGISTRY_HH

#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hh"

namespace macrosim
{

class StatRegistry
{
  public:
    /** A pull-callback; may capture arbitrary state by value or
     *  reference (the referent must outlive any dump). */
    using Getter = std::function<double()>;

    /** Register a stat under a dotted hierarchical name. */
    void
    add(std::string name, Getter getter)
    {
        entries_.push_back({std::move(name), std::move(getter)});
    }

    void addCounter(std::string name, const Counter &c);
    void addMean(std::string name, const Accumulator &a);

    std::size_t size() const { return entries_.size(); }

    /** Whether any stat is registered with exactly @p name. */
    bool has(std::string_view name) const;

    /** Pull one stat's current value; fatal() if absent. */
    double value(std::string_view name) const;

    /**
     * A prefix that does not collide with any registered name: @p base
     * if nothing is registered under it yet, else "base#2", "base#3"…
     * Used by objects that auto-register so two instances of the same
     * topology in one simulation keep distinct subtrees.
     */
    std::string uniquePrefix(const std::string &base) const;

    /** Write "name value" lines in registration order. */
    void dump(std::ostream &os) const;

    /** As dump(), but only stats whose name starts with @p prefix. */
    void dump(std::ostream &os, std::string_view prefix) const;

    /** Header row for a time-series snapshot CSV: "tick,<names…>". */
    void writeSnapshotHeader(std::ostream &os) const;

    /** One time-series row: @p now then every value, in order. */
    void writeSnapshotRow(std::ostream &os, std::uint64_t now) const;

    /** Visit every (name, current value) pair in order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &e : entries_)
            fn(e.name, e.getter());
    }

  private:
    struct Entry
    {
        std::string name;
        Getter getter;
    };
    std::vector<Entry> entries_;
};

/**
 * A registration handle that prepends a fixed dotted prefix, so a
 * subsystem can hand a scope to its children without them knowing
 * where in the tree they live.
 */
class StatScope
{
  public:
    StatScope(StatRegistry &registry, std::string prefix)
        : registry_(registry), prefix_(std::move(prefix))
    {}

    /** A child scope "<this prefix>.<sub>". */
    StatScope
    scope(const std::string &sub) const
    {
        return StatScope(registry_, prefix_ + "." + sub);
    }

    void
    add(const std::string &name, StatRegistry::Getter getter) const
    {
        registry_.add(prefix_ + "." + name, std::move(getter));
    }

    void
    addCounter(const std::string &name, const Counter &c) const
    {
        registry_.addCounter(prefix_ + "." + name, c);
    }

    void
    addMean(const std::string &name, const Accumulator &a) const
    {
        registry_.addMean(prefix_ + "." + name, a);
    }

    StatRegistry &registry() const { return registry_; }
    const std::string &prefix() const { return prefix_; }

  private:
    StatRegistry &registry_;
    std::string prefix_;
};

} // namespace macrosim

#endif // MACROSIM_SIM_TELEMETRY_REGISTRY_HH
