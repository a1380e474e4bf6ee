/**
 * @file
 * Per-cell correctness checks and the simulated-result digest.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "arch/protocol.hh"
#include "perfbench.hh"

namespace perfbench
{

using namespace macrosim;

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

void
digestInjector(Digest &d, const InjectorResult &r)
{
    d.add(r.offeredLoadPct);
    d.add(r.meanLatencyNs);
    d.add(r.maxLatencyNs);
    d.add(r.deliveredBytesPerNsPerSite);
    d.add(r.deliveredPct);
    d.add(r.measuredPackets);
    d.add(r.offeredMeasuredPct);
}

void
checkDrained(std::uint64_t injected, std::uint64_t delivered,
             std::uint64_t dropped, std::vector<std::string> &out)
{
    if (injected != delivered + dropped) {
        out.push_back("injected " + std::to_string(injected)
                      + " != delivered " + std::to_string(delivered)
                      + " + dropped " + std::to_string(dropped));
    }
}

void
checkWindow(const InjectorResult &r, const InjectorConfig &cfg,
            const MacrochipConfig &mc, std::vector<std::string> &out)
{
    // offeredMeasuredPct is the window's injected packets, scaled.
    const double injected = r.offeredMeasuredPct / 100.0
        * ticksToNs(cfg.window) * mc.siteCount()
        * mc.siteBandwidthBytesPerNs() / cfg.packetBytes;
    const auto in_window = static_cast<std::uint64_t>(std::llround(injected));
    if (r.measuredPackets > in_window) {
        out.push_back("measured " + std::to_string(r.measuredPackets)
                      + " > injected in window "
                      + std::to_string(in_window));
    }
}

void
checkCoherence(const TraceCpuResult &res, const WorkloadSpec &app,
               const CoherenceEngine &eng, const MacrochipConfig &mc,
               std::vector<std::string> &out)
{
    const std::uint64_t budget = app.instructionsPerCore * mc.coreCount();
    if (res.instructions != budget) {
        out.push_back("retired " + std::to_string(res.instructions)
                      + " of " + std::to_string(budget)
                      + " instructions");
    }
    if (eng.transactionsStarted()
        != eng.transactionsCompleted() + eng.abortedTransactions()) {
        out.push_back(
            "started " + std::to_string(eng.transactionsStarted())
            + " != completed "
            + std::to_string(eng.transactionsCompleted()) + " + aborted "
            + std::to_string(eng.abortedTransactions()));
    }
    if (eng.inFlight() != 0) {
        out.push_back(std::to_string(eng.inFlight())
                      + " transactions in flight after the run");
    }
}

void
checkDirectory(const CoherenceEngine &eng, std::uint32_t sites,
               std::vector<std::string> &out)
{
    // One message per kind of violation is enough to fail the cell.
    std::map<std::string, std::uint64_t> bad;
    for (SiteId home = 0; home < sites; ++home) {
        eng.directorySlice(home).forEachEntry(
            [&](Addr line, const DirEntry &e) {
                int writable = 0;
                int dirty = 0;
                for (SiteId s = 0; s < sites; ++s) {
                    const auto st = eng.l2(s).probe(line);
                    if (!st.has_value())
                        continue;
                    writable += canWrite(*st);
                    dirty += isDirty(*st);
                    // A writable copy needs the directory to name its
                    // site as the exclusive owner; an exclusive line
                    // may be cached nowhere else.
                    if (canWrite(*st)
                        && (e.state != DirState::Exclusive
                            || e.owner != s)) {
                        ++bad["writable copy not the directory's "
                              "exclusive owner"];
                    }
                    if (e.state == DirState::Exclusive && s != e.owner)
                        ++bad["exclusive line cached at another site"];
                }
                if (writable > 1)
                    ++bad["two writable copies"];
                if (dirty > 1)
                    ++bad["two dirty copies"];
            });
    }
    for (const auto &[what, lines] : bad)
        out.push_back(what + " (" + std::to_string(lines) + "x)");
}

bool
bitIdentical(const InjectorResult &a, const InjectorResult &b)
{
    const auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    return same(a.offeredLoadPct, b.offeredLoadPct)
        && same(a.meanLatencyNs, b.meanLatencyNs)
        && same(a.maxLatencyNs, b.maxLatencyNs)
        && same(a.p50LatencyNs, b.p50LatencyNs)
        && same(a.p99LatencyNs, b.p99LatencyNs)
        && same(a.deliveredBytesPerNsPerSite, b.deliveredBytesPerNsPerSite)
        && same(a.deliveredPct, b.deliveredPct)
        && a.measuredPackets == b.measuredPackets
        && a.overflowPackets == b.overflowPackets
        && same(a.offeredMeasuredPct, b.offeredMeasuredPct);
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace perfbench
