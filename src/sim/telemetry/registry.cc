#include "sim/telemetry/registry.hh"

#include "sim/logging.hh"

namespace macrosim
{

void
StatRegistry::addCounter(std::string name, const Counter &c)
{
    add(std::move(name), [&c] {
        return static_cast<double>(c.value());
    });
}

void
StatRegistry::addMean(std::string name, const Accumulator &a)
{
    add(std::move(name), [&a] { return a.mean(); });
}

bool
StatRegistry::has(std::string_view name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return true;
    }
    return false;
}

double
StatRegistry::value(std::string_view name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return e.getter();
    }
    fatal("StatRegistry::value: no stat named '", name, "'");
}

std::string
StatRegistry::uniquePrefix(const std::string &base) const
{
    const auto taken = [this](const std::string &prefix) {
        const std::string dotted = prefix + ".";
        for (const auto &e : entries_) {
            if (e.name == prefix
                || e.name.compare(0, dotted.size(), dotted) == 0) {
                return true;
            }
        }
        return false;
    };
    if (!taken(base))
        return base;
    for (int i = 2;; ++i) {
        const std::string candidate = base + "#" + std::to_string(i);
        if (!taken(candidate))
            return candidate;
    }
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &e : entries_)
        os << e.name << " " << e.getter() << "\n";
}

void
StatRegistry::dump(std::ostream &os, std::string_view prefix) const
{
    for (const auto &e : entries_) {
        if (e.name.compare(0, prefix.size(), prefix) == 0)
            os << e.name << " " << e.getter() << "\n";
    }
}

void
StatRegistry::writeSnapshotHeader(std::ostream &os) const
{
    os << "tick";
    for (const auto &e : entries_)
        os << "," << e.name;
    os << "\n";
}

void
StatRegistry::writeSnapshotRow(std::ostream &os,
                               std::uint64_t now) const
{
    os << now;
    for (const auto &e : entries_)
        os << "," << e.getter();
    os << "\n";
}

} // namespace macrosim
