/**
 * @file
 * From batches to metrics, plus the host metadata stamped on every
 * result.
 *
 * Timings are medians over a run's batches. Sums run over the cells
 * of one batch, so a count reads the same for every batch of a run.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;
using CellFn = std::function<double(const CellRecord &)>;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
sum(const Batch &b, const CellFn &f)
{
    double s = 0.0;
    for (const CellRecord &c : b.cells)
        s += f(c);
    return s;
}

/** Median over @p batches of a per-batch value. */
double
perBatch(const std::vector<Batch> &batches,
         const std::function<double(const Batch &)> &f)
{
    std::vector<double> v;
    for (const Batch &b : batches)
        v.push_back(f(b));
    return median(v);
}

/** Median over batches of sum(num) / sum(den). */
double
ratioOfSums(const std::vector<Batch> &batches, const CellFn &num,
            const CellFn &den)
{
    return perBatch(batches, [&](const Batch &b) {
        return ratio(sum(b, num), sum(b, den));
    });
}

/** Profiler wall per event of one tag, ns. */
double
tagNs(const std::vector<Batch> &traced, const std::string &tag)
{
    const auto of = [&tag](const CellRecord &c, bool wall) {
        const auto it = c.profile.find(tag);
        if (it == c.profile.end())
            return 0.0;
        return wall ? it->second.wallNs
                    : static_cast<double>(it->second.count);
    };
    return ratioOfSums(
        traced, [&](const CellRecord &c) { return of(c, true); },
        [&](const CellRecord &c) { return of(c, false); });
}

double
callbackWallNs(const CellRecord &c)
{
    double s = 0.0;
    for (const auto &[tag, cost] : c.profile)
        s += cost.wallNs;
    return s;
}

/** Event-core time of a traced cell: the run (for PDES, every LP's
 *  busy time) minus the callbacks' wall. */
double
selfNs(const CellRecord &c)
{
    const double span = c.lps > 0
        ? c.load.drainWallNs + c.load.execWallNs
        : c.runNs;
    return span - callbackWallNs(c);
}

/** The setup samples: every untraced and setup-only batch. */
double
setupMedianNs(const Measured &m,
              const std::function<double(const Batch &)> &f)
{
    std::vector<double> v;
    for (const Batch &b : m.untraced)
        v.push_back(f(b));
    for (const Batch &b : m.setupOnly)
        v.push_back(f(b));
    return median(v);
}

double
u64(std::uint64_t v)
{
    return static_cast<double>(v);
}

/** The PDES cell run at @p lps LPs, or null. */
const CellRecord *
pdesCell(const Batch &b, std::uint32_t lps)
{
    for (const CellRecord &c : b.cells) {
        if (c.lps == lps)
            return &c;
    }
    return nullptr;
}

double
pdesWallNs(const Batch &b, std::uint32_t lps)
{
    const CellRecord *c = pdesCell(b, lps);
    return c ? c->runNs + c->setup.net : 0.0;
}

} // namespace

std::vector<Metric>
endToEndMetrics(const Measured &m)
{
    const std::vector<Batch> &u = m.untraced;
    return {
        {"sim_pkts_per_s", "packets/s",
         1e9 * ratioOfSums(
             u, [](const CellRecord &c) { return u64(c.packets); },
             [](const CellRecord &c) { return c.runNs; })},
        {"wall_s", "s",
         1e-9 * perBatch(u, [](const Batch &b) { return b.wallNs; })},
        {"setup_s", "s",
         1e-9 * setupMedianNs(m, [](const Batch &b) {
             return b.setupNs();
         })},
        {"peak_rss_mb", "MB", m.peakRssMb},
    };
}

std::vector<Metric>
perLayerMetrics(const Measured &m)
{
    const std::vector<Batch> &u = m.untraced;
    const std::vector<Batch> &t = m.traced;
    const auto runNs = [](const CellRecord &c) { return c.runNs; };
    const auto executed = [](const CellRecord &c) {
        return u64(c.executed);
    };
    const auto injected = [](const CellRecord &c) {
        return u64(c.injected);
    };
    const auto count = [&u](const CellFn &f) {
        return perBatch(u, [&f](const Batch &b) { return sum(b, f); });
    };
    const auto setupMs = [&m](double SetupNs::*part) {
        return 1e-6 * setupMedianNs(m, [part](const Batch &b) {
            return b.setupNs(part);
        });
    };

    std::vector<Metric> out = {
        {"sim.events", "count", count(executed)},
        {"sim.exec_ratio", "ratio",
         ratioOfSums(u, executed,
                     [](const CellRecord &c) { return u64(c.scheduled); })},
        {"sim.peak_pending", "count",
         perBatch(u,
                  [](const Batch &b) {
                      std::uint64_t peak = 0;
                      for (const CellRecord &c : b.cells)
                          peak = std::max(peak, c.peakPending);
                      return u64(peak);
                  })},
        {"sim.host_ns_per_event", "ns/event",
         ratioOfSums(u, runNs, executed)},
        {"sim.self_ns_per_event", "ns/event",
         ratioOfSums(t, selfNs, executed)},
        {"sim.batch_share", "ratio",
         ratioOfSums(
             u, [](const CellRecord &c) { return u64(c.batchEvents); },
             executed)},
    };

    for (const char *topo : {"tring", "cswitch", "pt2pt", "lpt2pt",
                             "2phase", "2phase_alt", "hermes"}) {
        const std::string slug = topo;
        const auto mine = [slug](const CellFn &f) {
            return [slug, f](const CellRecord &c) {
                return c.topo == slug ? f(c) : 0.0;
            };
        };
        out.push_back(
            {"net." + slug + ".host_ns_per_pkt", "ns/packet",
             ratioOfSums(u, mine(runNs), mine([](const CellRecord &c) {
                             return u64(c.packets);
                         }))});
    }
    out.insert(
        out.end(),
        {
            {"net.tring.grant_ns", "ns/event",
             tagNs(t, "net.tring.grant")},
            {"net.cswitch.setups_per_circuit", "setups/circuit",
             ratioOfSums(
                 t,
                 [](const CellRecord &c) {
                     const auto it = c.profile.find("net.cswitch.setup");
                     return it == c.profile.end() ? 0.0
                                                  : u64(it->second.count);
                 },
                 [](const CellRecord &c) { return u64(c.circuits); })},
            {"net.cswitch.release_ns", "ns/event",
             tagNs(t, "net.cswitch.release")},
            {"net.2phase.slot_ns", "ns/event", tagNs(t, "net.2phase.slot")},
            {"net.lpt2pt.forward_ns", "ns/event",
             tagNs(t, "net.lpt2pt.forward")},
            {"net.hermes.ring_ns", "ns/event", tagNs(t, "net.hermes.ring")},
            {"net.deliver_ns", "ns/event", tagNs(t, "net.deliver")},
            {"net.retry_per_pkt", "retries/packet",
             ratioOfSums(
                 u, [](const CellRecord &c) { return u64(c.retries); },
                 injected)},
            {"net.drop_ratio", "ratio",
             ratioOfSums(
                 u, [](const CellRecord &c) { return u64(c.dropped); },
                 injected)},

            {"workloads.inject_ns", "ns/event",
             tagNs(t, "workload.inject")},
            {"workloads.hist_overflow", "count",
             count([](const CellRecord &c) { return u64(c.histOverflow); })},
            {"workloads.cpu_burst_ns", "ns/event",
             tagNs(t, "workload.cpu_burst")},
            {"workloads.coh_host_ns_per_op", "ns/op",
             ratioOfSums(
                 u,
                 [](const CellRecord &c) {
                     return c.coherenceOps > 0 ? c.runNs : 0.0;
                 },
                 [](const CellRecord &c) { return u64(c.coherenceOps); })},
            {"workloads.coalesced_ratio", "ratio",
             ratioOfSums(
                 u, [](const CellRecord &c) { return u64(c.coalesced); },
                 [](const CellRecord &c) { return u64(c.txnStarted); })},
            {"workloads.sim_instr_per_s", "instr/s",
             1e9 * ratioOfSums(
                 u, [](const CellRecord &c) { return u64(c.instructions); },
                 [](const CellRecord &c) {
                     return c.instructions > 0 ? c.runNs : 0.0;
                 })},

            {"arch.dir_lookup_ns", "ns/event", tagNs(t, "arch.dir_lookup")},
            {"arch.memory_ns", "ns/event", tagNs(t, "arch.memory")},
            {"arch.l2_miss_ratio", "ratio",
             ratioOfSums(
                 u, [](const CellRecord &c) { return u64(c.l2Misses); },
                 [](const CellRecord &c) {
                     return u64(c.l2Hits + c.l2Misses);
                 })},
            {"setup.cpu_ms", "ms/batch", setupMs(&SetupNs::cpu)},

            {"fault.events", "count",
             count([](const CellRecord &c) { return u64(c.faultEvents); })},
            {"fault.inject_ns", "ns/event", tagNs(t, "fault.inject")},
            {"setup.fault_ms", "ms/batch", setupMs(&SetupNs::fault)},
        });

    for (const std::uint32_t lps : {1u, 2u, 4u}) {
        const std::string p = "pdes.lp" + std::to_string(lps) + ".";
        const auto at = [lps](const std::vector<Batch> &bs, const CellFn &f) {
            return perBatch(bs, [&](const Batch &b) {
                const CellRecord *c = pdesCell(b, lps);
                return c ? f(*c) : 0.0;
            });
        };
        const auto wall = [lps](const Batch &b) { return pdesWallNs(b, lps); };
        out.push_back({p + "wall_s", "s/run", 1e-9 * perBatch(u, wall)});
        out.push_back({p + "exec_ns_per_event", "ns/event",
                       at(t, [](const CellRecord &c) {
                           return ratio(c.load.execWallNs,
                                        u64(c.load.totalExecuted));
                       })});
        if (lps == 1)
            continue;
        out.insert(
            out.end(),
            {
                {p + "speedup", "x", perBatch(u, [&](const Batch &b) {
                     return ratio(pdesWallNs(b, 1), wall(b));
                 })},
                {p + "blocked_frac", "ratio", at(t, [](const CellRecord &c) {
                     return c.load.blockedFraction;
                 })},
                {p + "imbalance", "ratio", at(u, [](const CellRecord &c) {
                     return c.load.eventImbalance;
                 })},
                {p + "horizon_use", "ratio", at(t, [](const CellRecord &c) {
                     double consumed = 0.0, granted = 0.0;
                     for (const auto &lp : c.load.lps) {
                         consumed += u64(lp.consumedTicks);
                         granted += u64(lp.grantedTicks);
                     }
                     return ratio(consumed, granted);
                 })},
                {p + "cross_posts", "count", at(u, [](const CellRecord &c) {
                     return u64(c.crossPosts);
                 })},
                {p + "spills", "count", at(u, [](const CellRecord &c) {
                     return u64(c.spills);
                 })},
            });
    }

    const double untraced_wall =
        perBatch(u, [](const Batch &b) { return b.wallNs; });
    const double traced_wall =
        perBatch(t, [](const Batch &b) { return b.wallNs; });
    out.push_back({"setup.net_ms", "ms/batch", setupMs(&SetupNs::net)});
    out.push_back({"telemetry.overhead_pct", "%",
                   100.0 * (ratio(traced_wall, untraced_wall) - 1.0)});
    return out;
}

std::map<std::string, double>
layerWallMs(const Batch &traced)
{
    std::map<std::string, double> out;
    for (const CellRecord &c : traced.cells) {
        for (const auto &[tag, cost] : c.profile) {
            std::string group = "other";
            if (tag.rfind("net.", 0) == 0)
                group = tag.substr(0, tag.find('.', 4));
            for (const std::string layer : {"workload", "arch", "fault",
                                            "pdes"}) {
                if (tag.rfind(layer + ".", 0) == 0)
                    group = layer;
            }
            out[group] += cost.wallNs * 1e-6;
        }
        out["sim.self"] += selfNs(c) * 1e-6;
    }
    return out;
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    return "\"" + macrosim::jsonEscape(s) + "\"";
}

namespace
{

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    }
    std::string brand(reinterpret_cast<const char *>(regs), sizeof(regs));
    brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
    brand.erase(0, brand.find_first_not_of(' '));
    return brand;
#else
    return "unknown";
#endif
}

/**
 * bench_pdes's busy-loop probe: how much CPU 4 concurrent threads
 * get here, 4.0 on four free cores.
 */
double
threadScaling4()
{
    constexpr std::uint64_t iters = 60'000'000;
    std::atomic<std::uint64_t> sink{0};
    const auto burn = [&sink] {
        std::uint64_t s = 0;
        for (std::uint64_t i = 0; i < iters; ++i)
            s += i * i;
        sink.fetch_add(s, std::memory_order_relaxed);
    };
    const Clock::time_point t0 = Clock::now();
    burn();
    const Clock::time_point t1 = Clock::now();
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i)
        threads.emplace_back(burn);
    for (std::thread &th : threads)
        th.join();
    const Clock::time_point t2 = Clock::now();
    const double serial = std::chrono::duration<double>(t1 - t0).count();
    const double par = std::chrono::duration<double>(t2 - t1).count();
    return par > 0.0 ? 4.0 * serial / par : 0.0;
}

} // namespace

Host
probeHost(const std::string &git_sha)
{
    Host h;
    h.nproc = std::thread::hardware_concurrency();
    h.cpu = cpuModel();
#if defined(__clang__)
    h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    h.compiler = "gcc " __VERSION__;
#else
    h.compiler = "unknown";
#endif
    h.buildType = PERFBENCH_BUILD_TYPE;
    h.gitSha = git_sha;
    h.threadScaling4 = threadScaling4();
    return h;
}

std::string
hostJson(const Host &h)
{
    return "{\"nproc\":" + std::to_string(h.nproc)
        + ",\"cpu\":" + jsonStr(h.cpu)
        + ",\"compiler\":" + jsonStr(h.compiler)
        + ",\"build_type\":" + jsonStr(h.buildType)
        + ",\"git_sha\":" + (h.gitSha.empty() ? "null" : jsonStr(h.gitSha))
        + ",\"thread_scaling_4\":" + jsonNum(h.threadScaling4) + "}";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

} // namespace perfbench
