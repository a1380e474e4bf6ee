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
StatRegistry::dumpCsv(std::ostream &os) const
{
    for (std::size_t i = 0; i < entries_.size(); ++i)
        os << entries_[i].name << (i + 1 < entries_.size() ? "," : "\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        os << entries_[i].getter()
           << (i + 1 < entries_.size() ? "," : "\n");
    }
}

void
StatRegistry::dumpTree(std::ostream &os) const
{
    // Entries are grouped by shared dotted ancestry with the previous
    // entry, so the tree mirrors registration order (which callers
    // keep hierarchical anyway) without sorting.
    std::vector<std::string> open; // currently open component stack
    for (const auto &e : entries_) {
        std::vector<std::string> parts;
        std::size_t start = 0;
        for (std::size_t dot = e.name.find('.');
             dot != std::string::npos;
             start = dot + 1, dot = e.name.find('.', start)) {
            parts.push_back(e.name.substr(start, dot - start));
        }
        const std::string leaf = e.name.substr(start);

        std::size_t common = 0;
        while (common < parts.size() && common < open.size()
               && parts[common] == open[common]) {
            ++common;
        }
        open.resize(common);
        for (std::size_t i = common; i < parts.size(); ++i) {
            os << std::string(2 * i, ' ') << parts[i] << "\n";
            open.push_back(parts[i]);
        }
        os << std::string(2 * parts.size(), ' ') << leaf << " "
           << e.getter() << "\n";
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
