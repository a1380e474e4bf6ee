/**
 * @file
 * Open-loop raw-packet injector for latency/throughput analysis
 * (paper section 6.1, figure 6).
 *
 * Each site generates 64-byte packets (one cache-line transfer) with
 * exponential inter-arrival times at the requested fraction of its
 * 320 B/ns injection bandwidth, destinations drawn from a synthetic
 * pattern. After a warmup period, per-packet latency and delivered
 * throughput are measured over a fixed window; injection then stops
 * and the simulation drains. Latency diverging as load approaches a
 * network's sustainable bandwidth traces out the vertical asymptotes
 * of figure 6.
 */

#ifndef MACROSIM_WORKLOADS_PACKET_INJECTOR_HH
#define MACROSIM_WORKLOADS_PACKET_INJECTOR_HH

#include <cstdint>

#include "net/network.hh"
#include "workloads/patterns.hh"
#include "workloads/pdes_driver.hh"

namespace macrosim
{

struct InjectorConfig
{
    TrafficPattern pattern = TrafficPattern::Uniform;
    /** Offered load as a fraction of per-site peak (0, 1]. */
    double load = 0.1;
    std::uint32_t packetBytes = 64;
    Tick warmup = 2000 * tickNs;
    Tick window = 10000 * tickNs;
    std::uint64_t seed = 1;
};

struct InjectorResult
{
    /** Offered load as % of 320 B/ns per site (figure 6 x-axis). */
    double offeredLoadPct = 0.0;
    /** Mean latency over measured packets, ns (figure 6 y-axis). */
    double meanLatencyNs = 0.0;
    double maxLatencyNs = 0.0;
    /** Latency tail percentiles, ns (estimated from a histogram with
     *  50 ps buckets up to 4 us). */
    double p50LatencyNs = 0.0;
    double p99LatencyNs = 0.0;
    /** Delivered bytes/ns per site during the window. */
    double deliveredBytesPerNsPerSite = 0.0;
    /** Delivered throughput as % of per-site peak. */
    double deliveredPct = 0.0;
    std::uint64_t measuredPackets = 0;
    /**
     * Measured packets whose latency exceeded the histogram cap
     * (4 us): they are excluded from the percentile buckets, so when
     * a quantile lands among them p50/p99 report +inf rather than a
     * silently-clipped finite value. mean/max are unaffected (they
     * come from the unclipped accumulator).
     */
    std::uint64_t overflowPackets = 0;
    /**
     * Offered load actually generated during the measurement window,
     * as % of per-site peak — injected window packets x packet size
     * over window x sites x peak. Differs from offeredLoadPct by the
     * inter-arrival quantization bias: the legacy injector rounds
     * each exponential gap to >= 1 tick (upward bias <= 0.5 tick +
     * P(gap < 1 tick) per arrival, i.e. <~ 1.5% at figure-6 rates),
     * and the PDES injector accumulates arrivals on a drift-free
     * real-valued clock (bias only from the final truncated
     * inter-arrival, <= 1 packet per site).
     */
    double offeredMeasuredPct = 0.0;

    /**
     * Whether every field equals @p o's bit for bit: the identity
     * contract of jobs counts, LP counts and worker threads. Unlike
     * ==, this tells -0.0 from 0.0 and matches a NaN with itself.
     */
    bool identicalTo(const InjectorResult &o) const;
};

/**
 * Drive @p net with the open-loop injector and return the measured
 * load point. The caller owns the simulator the network lives in;
 * the injector requires exclusive use of the network's handlers.
 */
InjectorResult runOpenLoop(Simulator &sim, Network &net,
                           const InjectorConfig &cfg);

/** A parallel-in-model injector run's measurement plus how it ran. */
struct PdesInjectorResult
{
    InjectorResult result;
    /** LPs actually used (1 for Colocated topologies). */
    std::uint32_t effectiveLps = 0;
    /** Events executed across all LPs. */
    std::uint64_t eventsExecuted = 0;
    /** Cross-LP events posted through the scheduler. */
    std::uint64_t crossPosts = 0;
    /** Cross-LP posts that overflowed an SPSC ring into its
     *  overflow batch (capacity-tuning telemetry; harmless when > 0). */
    std::uint64_t spscSpills = 0;
    /** Per-LP load-balance breakdown (PdesScheduler::loadReport();
     *  wall-clock columns filled when PdesObservability::timing). */
    PdesLoadReport load;
};

/**
 * The open-loop injector partitioned across @p lps logical processes
 * (workloads/pdes_driver.hh). Every stochastic element is per-site —
 * one RNG stream and one drift-free real-valued arrival clock per
 * source, one latency accumulator per destination, merged in global
 * site order — so the InjectorResult is bit-identical for every
 * (lps, threads) choice. Note the streams differ from runOpenLoop's
 * single-RNG legacy path: compare PDES runs with PDES runs.
 *
 * Measurement windows are anchored at tick zero (fresh simulators):
 * warmup ends at cfg.warmup, the window at cfg.warmup + cfg.window.
 */
PdesInjectorResult runOpenLoopPdes(const PdesNetworkFactory &make_net,
                                   const InjectorConfig &cfg,
                                   std::uint32_t lps,
                                   std::size_t threads = 0,
                                   const PdesObservability *obs =
                                       nullptr);

} // namespace macrosim

#endif // MACROSIM_WORKLOADS_PACKET_INJECTOR_HH
