/**
 * @file
 * perfbench: the macrosim performance benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --reference <digests file> [--out-dir <dir>]
 *             [--git-sha <sha>]
 *   perfbench --self-test
 *
 * Runs batches of the named workload back to back for --seconds
 * (at least one). With --trace 0 every batch is untraced and the
 * end-to-end metrics are printed; with --trace 1 untraced and traced
 * batches alternate and the per-layer metrics are printed. The
 * last line of stdout is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}, where attempted and failed count cells.
 *
 * Every cell is checked (conservation, coherence invariants, PDES
 * bit-identity) and hashed; at the default seed the hashes must match
 * the reference digests, and a traced cell must hash like its
 * untraced twin. Per-cell digests are printed for any seed, so two
 * builds can be compared on a seed the reference does not cover.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "perfbench.hh"
#include "sim/logging.hh"
#include "sim/telemetry/json.hh"

namespace
{

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/** Setup is timed at least this many times per run; setup_s is the
 *  median. */
constexpr std::size_t minSetupSamples = 15;

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string outDir;
    std::string gitSha;
    bool selfTest = false;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            o.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (!(o.seconds > 0.0))
                return false;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return false;
            o.trace = v == "1";
        } else if (a == "--reference") {
            o.reference = v;
        } else if (a == "--out-dir") {
            o.outDir = v;
        } else if (a == "--git-sha") {
            o.gitSha = v;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return o.selfTest || (!o.workload.empty() && !o.reference.empty());
}

/** (workload, cell label) -> digest, as printed by "digest" lines. */
using References = std::map<std::pair<std::string, std::string>,
                            std::uint64_t>;

bool
loadReferences(const std::string &path, References &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        std::string workload, label, digest;
        if (!(row >> workload >> label >> digest))
            return false;
        out[{workload, label}] = std::strtoull(digest.c_str(), nullptr, 16);
    }
    return true;
}

/** Fail every cell whose digest differs from its reference. */
void
checkReferences(Batch &b, const std::string &workload,
                const References &refs)
{
    for (CellRecord &c : b.cells) {
        const auto it = refs.find({workload, c.label});
        if (it == refs.end())
            c.failures.push_back("no reference digest");
        else if (it->second != c.digest)
            c.failures.push_back("digest " + hex(c.digest)
                                 + " != reference " + hex(it->second));
    }
}

/** Fail every traced cell that hashes unlike its untraced twin. */
void
checkTracedDigests(Batch &traced, const Batch &untraced)
{
    for (std::size_t i = 0; i < traced.cells.size(); ++i) {
        if (traced.cells[i].digest != untraced.cells[i].digest)
            traced.cells[i].failures.push_back(
                "traced digest differs from untraced");
    }
}

/** One digest over a batch's cell digests, in cell order. */
std::uint64_t
batchDigest(const Batch &b)
{
    Digest d;
    for (const CellRecord &c : b.cells)
        d.add(c.digest);
    return d.value();
}

/** "[w0,w1,...]": each batch's wall time, s. */
std::string
batchWalls(const std::vector<Batch> &batches)
{
    std::string s = "[";
    for (std::size_t i = 0; i < batches.size(); ++i)
        s += (i ? "," : "") + jsonNum(batches[i].wallNs * 1e-9);
    return s + "]";
}

/** "[s0,s1,...]": the setup_s samples, untraced batches first, ms. */
std::string
setupSamples(const Measured &m)
{
    std::string s = "[";
    for (const std::vector<Batch> *bs : {&m.untraced, &m.setupOnly}) {
        for (const Batch &b : *bs)
            s += (s.size() > 1 ? "," : "") + jsonNum(b.setupNs() * 1e-6);
    }
    return s + "]";
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Run rounds (an untraced batch, plus a traced one with --trace 1)
 * while the next round still ends within @p seconds, judged by the
 * longest round so far; always at least one.
 */
Measured
measure(const Workload &w, double seconds, bool trace, TraceSink &spans)
{
    Measured m;
    const Clock::time_point t0 = Clock::now();
    double longest = 0.0;
    do {
        const Clock::time_point r0 = Clock::now();
        m.untraced.push_back(runBatch(w, Pass::Untraced, nullptr));
        if (m.untraced.size() == 1)
            m.peakRssMb = peakRssMb();
        if (trace) {
            // Spans of the first traced batch are enough.
            m.traced.push_back(runBatch(
                w, Pass::Traced, m.traced.empty() ? &spans : nullptr));
        }
        longest = std::max(longest, secondsSince(r0));
    } while (secondsSince(t0) + longest <= seconds);
    while (m.untraced.size() + m.setupOnly.size() < minSetupSamples)
        m.setupOnly.push_back(runBatch(w, Pass::SetupOnly, nullptr));
    return m;
}

std::string
cellJson(const CellRecord &c)
{
    std::string failures = "[";
    for (std::size_t i = 0; i < c.failures.size(); ++i)
        failures += (i ? "," : "") + jsonStr(c.failures[i]);
    failures += "]";
    return "{\"label\":" + jsonStr(c.label) + ",\"topo\":" + jsonStr(c.topo)
        + ",\"ok\":" + (c.failures.empty() ? "true" : "false")
        + ",\"failures\":" + failures + ",\"digest\":" + jsonStr(hex(c.digest))
        + ",\"setup_ms\":" + jsonNum(c.setup.total() * 1e-6)
        + ",\"run_ms\":" + jsonNum(c.runNs * 1e-6)
        + ",\"cell_ms\":" + jsonNum(c.cellNs * 1e-6)
        + ",\"events\":" + std::to_string(c.executed)
        + ",\"packets\":" + std::to_string(c.packets)
        + ",\"instructions\":" + std::to_string(c.instructions)
        + ",\"mean_latency_ns\":" + jsonNum(c.traffic.meanLatencyNs)
        + ",\"p50_latency_ns\":" + jsonNum(c.traffic.p50LatencyNs)
        + ",\"p99_latency_ns\":" + jsonNum(c.traffic.p99LatencyNs) + "}";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", " : "") + jsonStr(metrics[i].name)
            + ": {\"value\": " + jsonNum(metrics[i].value)
            + ", \"unit\": " + jsonStr(metrics[i].unit) + "}";
    }
    return s + "}";
}

bool
writeValidJson(const std::string &path, const std::string &json)
{
    std::string err;
    if (!macrosim::jsonValid(json, &err)) {
        std::fprintf(stderr, "perfbench: %s is not valid JSON: %s\n",
                     path.c_str(), err.c_str());
        return false;
    }
    std::ofstream os(path, std::ios::binary);
    os << json << "\n";
    os.close();
    if (!os) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return false;
    }
    return true;
}

/** The contract line: null values (non-finite) make a run incorrect. */
std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    for (const Metric &mt : metrics)
        correct = correct && std::isfinite(mt.value);
    return std::string("{\"correct\": ") + (correct ? "true" : "false")
        + ", \"attempted\": " + std::to_string(attempted)
        + ", \"failed\": " + std::to_string(failed)
        + ", \"metrics\": " + metricsJson(metrics) + "}";
}

/** Count attempted and failed cells; print each distinct failure. */
void
tally(const Measured &m, std::uint64_t &attempted, std::uint64_t &failed)
{
    std::set<std::string> reported;
    for (const std::vector<Batch> *bs : {&m.untraced, &m.traced}) {
        for (const Batch &b : *bs) {
            for (const CellRecord &c : b.cells) {
                ++attempted;
                failed += !c.failures.empty();
                for (const std::string &f : c.failures) {
                    if (reported.insert(c.label + ": " + f).second)
                        std::printf("failed %s: %s\n", c.label.c_str(),
                                    f.c_str());
                }
            }
        }
    }
}

/** The result file: host, counts, digests, batch walls, the traced
 *  batch's layer split, every metric and the first batch's cells. */
std::string
resultDoc(const Options &o, const Host &host, const Measured &m,
          std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    const Batch &first = m.untraced.front();
    std::string cells = "[";
    for (std::size_t i = 0; i < first.cells.size(); ++i)
        cells += (i ? "," : "") + cellJson(first.cells[i]);
    cells += "]";
    std::string layers = "{";
    if (!m.traced.empty()) {
        for (const auto &[layer, ms] : layerWallMs(m.traced.front())) {
            layers += (layers.size() > 1 ? "," : "") + jsonStr(layer) + ":"
                + jsonNum(ms);
        }
    }
    layers += "}";
    return "{\"workload\":" + jsonStr(o.workload)
        + ",\"seed\":" + std::to_string(o.seed)
        + ",\"trace\":" + (o.trace ? "1" : "0")
        + ",\"host\":" + hostJson(host)
        + ",\"attempted\":" + std::to_string(attempted)
        + ",\"failed\":" + std::to_string(failed)
        + ",\"digest\":" + jsonStr(hex(batchDigest(first)))
        + ",\"batch_wall_s\":" + batchWalls(m.untraced)
        + ",\"traced_batch_wall_s\":" + batchWalls(m.traced)
        + ",\"setup_ms\":" + setupSamples(m)
        + ",\"layer_wall_ms\":" + layers
        + ",\"metrics\":" + metricsJson(metrics) + ",\"cells\":" + cells
        + "}";
}

int
runBenchmark(const Options &o)
{
    Workload w;
    if (!makeWorkload(o.workload, o.seed, false, &w)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }
    References refs;
    if (!loadReferences(o.reference, refs)) {
        std::fprintf(stderr, "perfbench: cannot read reference digests "
                     "'%s'\n", o.reference.c_str());
        return 2;
    }
    std::printf("perfbench %s seed=%llu trace=%d seconds=%g\n",
                w.name.c_str(), static_cast<unsigned long long>(o.seed),
                o.trace ? 1 : 0, o.seconds);
    const Host host = probeHost(o.gitSha);
    std::printf("host %s\n", hostJson(host).c_str());
    std::fflush(stdout);

    TraceSink spans;
    spans.processName(1, "perfbench " + w.name);
    spans.threadName(1, 1, "cells");
    Measured m = measure(w, o.seconds, o.trace, spans);

    if (o.seed == defaultSeed) {
        for (Batch &b : m.untraced)
            checkReferences(b, w.name, refs);
    }
    for (Batch &b : m.traced)
        checkTracedDigests(b, m.untraced.front());
    std::uint64_t attempted = 0, failed = 0;
    tally(m, attempted, failed);

    const Batch &first = m.untraced.front();
    for (const CellRecord &c : first.cells) {
        std::printf("digest %s %s %s\n", w.name.c_str(), c.label.c_str(),
                    hex(c.digest).c_str());
    }
    std::printf("digest %s * %s\n", w.name.c_str(),
                hex(batchDigest(first)).c_str());

    std::vector<Metric> metrics = endToEndMetrics(m);
    const std::size_t e2e_count = metrics.size();
    if (o.trace) {
        const std::vector<Metric> layers = perLayerMetrics(m);
        metrics.insert(metrics.end(), layers.begin(), layers.end());
        for (const auto &[layer, ms] : layerWallMs(m.traced.front())) {
            std::printf("layer %-35s %-14s ms\n", layer.c_str(),
                        jsonNum(ms).c_str());
        }
    }
    for (const Metric &mt : metrics) {
        std::printf("metric %-34s %-14s %s\n", mt.name.c_str(),
                    jsonNum(mt.value).c_str(), mt.unit.c_str());
    }
    std::printf("metric %-34s %-14llu count\n", "cells",
                static_cast<unsigned long long>(attempted));
    std::printf("metric %-34s %-14llu count\n", "cells_failed",
                static_cast<unsigned long long>(failed));
    std::printf("batches untraced=%zu traced=%zu setup_only=%zu\n",
                m.untraced.size(), m.traced.size(), m.setupOnly.size());

    bool ok = true;
    if (!o.outDir.empty()) {
        const std::string stem = o.outDir + "/" + w.name + "-seed"
            + std::to_string(o.seed) + "-trace" + (o.trace ? "1" : "0");
        ok = writeValidJson(stem + ".json",
                            resultDoc(o, host, m, attempted, failed,
                                      metrics));
        if (o.trace) {
            std::ostringstream trace;
            spans.writeJson(trace);
            ok = writeValidJson(stem + "-spans.json", trace.str()) && ok;
        }
        std::printf("wrote %s.json%s\n", stem.c_str(),
                    o.trace ? " and -spans.json" : "");
    }

    // --trace 0 reports the end-to-end metrics, --trace 1 the rest.
    const std::vector<Metric> reported(
        o.trace ? metrics.begin() + e2e_count : metrics.begin(),
        o.trace ? metrics.end() : metrics.begin() + e2e_count);
    const std::string line =
        resultLine(ok && failed == 0, attempted, failed, reported);
    std::string err;
    if (!macrosim::jsonValid(line, &err)) {
        std::fprintf(stderr, "perfbench: result is not valid JSON: %s\n",
                     err.c_str());
        return 1;
    }
    std::printf("%s\n", line.c_str());
    return 0;
}

/* ---- self-test ---- */

int selfTestFailures = 0;

void
expect(bool cond, const char *what)
{
    std::printf("self-test %s: %s\n", cond ? "ok  " : "FAIL", what);
    selfTestFailures += !cond;
}

int
selfTest()
{
    // Doctored cells must fail their checks.
    std::vector<std::string> f;
    checkDrained(100, 99, 0, f);
    expect(!f.empty(), "delivered != injected fails the cell");

    f.clear();
    InjectorConfig cfg;
    cfg.window = 1000 * macrosim::tickNs;
    const macrosim::MacrochipConfig mc = macrosim::simulatedConfig();
    InjectorResult r;
    r.measuredPackets = 11;
    // 10 packets of cfg.packetBytes injected in the window.
    r.offeredMeasuredPct = 10.0 * cfg.packetBytes / 1000.0
        / mc.siteCount() / mc.siteBandwidthBytesPerNs() * 100.0;
    checkWindow(r, cfg, mc, f);
    expect(!f.empty(), "measured > injected in window fails the cell");

    // A reduced run of every workload: no failed cell, traced digests
    // equal untraced ones, PDES identical across LP counts.
    const std::string openloop = workloadNames().front();
    Batch ob;
    for (const std::string &name : workloadNames()) {
        Workload w;
        makeWorkload(name, defaultSeed, true, &w);
        TraceSink spans;
        Batch u = runBatch(w, Pass::Untraced, nullptr);
        Batch t = runBatch(w, Pass::Traced, &spans);
        checkTracedDigests(t, u);
        std::size_t failed = 0;
        for (const Batch *b : {&u, &t}) {
            for (const CellRecord &c : b->cells) {
                failed += !c.failures.empty();
                for (const std::string &why : c.failures)
                    std::printf("  %s: %s\n", c.label.c_str(), why.c_str());
            }
        }
        expect(failed == 0,
               ("reduced " + name + " has no failed cell").c_str());
        std::ostringstream json;
        spans.writeJson(json);
        expect(macrosim::jsonValid(json.str()) && spans.size() > 0,
               ("reduced " + name + " spans are valid JSON").c_str());
        if (name == openloop)
            ob = std::move(u);
    }

    // One changed digest field fails the cell against its reference.
    const CellRecord &cell = ob.cells.front();
    InjectorResult doctored = cell.traffic;
    doctored.meanLatencyNs = std::nextafter(doctored.meanLatencyNs, 1e300);
    Digest a, b;
    digestInjector(a, cell.traffic);
    digestInjector(b, doctored);
    expect(a.value() != b.value(), "one changed field changes the digest");
    References refs;
    for (const CellRecord &c : ob.cells)
        refs[{openloop, c.label}] = c.digest;
    Batch good = ob;
    checkReferences(good, openloop, refs);
    expect(good.cells.front().failures.empty(),
           "matching reference digests pass");
    refs[{openloop, cell.label}] ^= 1;
    Batch bad = ob;
    checkReferences(bad, openloop, refs);
    expect(!bad.cells.front().failures.empty(),
           "a changed reference digest fails the cell");

    // Non-finite values are written as null and make a run incorrect.
    expect(jsonNum(INFINITY) == "null" && jsonNum(NAN) == "null",
           "inf and nan are written as null");
    const std::string line =
        resultLine(true, 1, 0, {{"x", "s", INFINITY}});
    expect(macrosim::jsonValid(line)
               && line.find("\"correct\": false") != std::string::npos,
           "an inf metric is null and the run incorrect");

    std::printf("self-test: %d failure(s)\n", selfTestFailures);
    return selfTestFailures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    macrosim::setQuiet(true);
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> --reference <file> "
                     "[--out-dir <dir>] [--git-sha <sha>]\n"
                     "       perfbench --self-test\n");
        return 2;
    }
    return o.selfTest ? selfTest() : runBenchmark(o);
}
