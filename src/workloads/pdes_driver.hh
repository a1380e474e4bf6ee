/**
 * @file
 * Shared scaffolding for parallel-in-model (PDES) workload drivers.
 *
 * A driver partitions one simulation across logical processes by
 * building one Network replica per LP from a caller-supplied factory.
 * The factory runs once per LP against that LP's Simulator, so every
 * replica sees identical configuration; bindPdes() then switches the
 * replicas onto the deterministic keyed delivery path. Topologies
 * whose state cannot split (PdesPartition::Colocated) collapse to one
 * effective LP — the run still uses the PDES machinery, it just has
 * no parallelism to exploit.
 */

#ifndef MACROSIM_WORKLOADS_PDES_DRIVER_HH
#define MACROSIM_WORKLOADS_PDES_DRIVER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hh"
#include "sim/pdes_scheduler.hh"
#include "sim/telemetry/pdes_trace.hh"

namespace macrosim
{

/** Builds one topology replica on the given LP's Simulator. Must be a
 *  pure function of the simulator (identical config every call). */
using PdesNetworkFactory =
    std::function<std::unique_ptr<Network>(Simulator &)>;

/** A partitioned model: the scheduler plus one bound replica per LP. */
struct PdesModel
{
    std::unique_ptr<PdesScheduler> sched;
    std::vector<std::unique_ptr<Network>> nets;
    /** LPs actually used; 1 for Colocated topologies regardless of
     *  the request. */
    std::uint32_t effectiveLps = 1;

    Network &net(std::uint32_t lp) { return *nets[lp]; }
};

/**
 * Probe the topology's partitionability, size the LP count, and build
 * the bound replicas: block site partition, per-LP replica, lookahead
 * from the topology's own bound.
 *
 * @param lps Requested LP count (>= 1); clamped to the site count,
 *        and to 1 for Colocated topologies.
 * @param threads Worker threads (0 = one per LP).
 * @param min_message_bytes The workload's smallest message: the
 *        lookahead counts its serialization, and every replica
 *        panics on a smaller inject.
 */
PdesModel buildPdesModel(const PdesNetworkFactory &make_net,
                         std::uint32_t lps, std::size_t threads,
                         std::uint64_t seed,
                         std::uint32_t min_message_bytes = 1);

/**
 * Optional observability for a PDES workload run. Every field
 * defaults off, and the workload entry points take a null pointer to
 * mean "no observability" — the instrumented paths cost nothing when
 * unused, so results stay byte-identical with telemetry off.
 */
struct PdesObservability
{
    /** Collect per-round wall-clock splits (two steady_clock reads
     *  per horizon round) so the load report's busy/blocked columns
     *  fill in. */
    bool timing = false;
    /** Enable the per-LP event-loop self-profiler. */
    bool profile = false;
    /** When set, receive the merged Perfetto timeline (PdesTracer). */
    TraceSink *trace = nullptr;
    /** When set with profile: the per-LP profiler tables, folded in
     *  fixed LP order (thread-count invariant layout; the wall-time
     *  numbers inside are real-time measurements). */
    std::string *profileOut = nullptr;
    /** When set: a "name value" dump of the scheduler's pdes.*
     *  registry after the run. */
    std::string *metricsOut = nullptr;
};

/**
 * Arm the scheduler-side observability on @p model before run():
 * timing flag, per-LP profilers, and the tracer (returned; it must
 * outlive the run). Null @p obs arms nothing.
 */
std::unique_ptr<PdesTracer>
armPdesObservability(PdesModel &model, const PdesObservability *obs);

/**
 * After run() returns: merge the tracer shards into obs->trace, fold
 * the per-LP profiles into obs->profileOut, and dump the scheduler
 * registry into obs->metricsOut.
 */
void finishPdesObservability(PdesModel &model,
                             const PdesObservability *obs,
                             std::unique_ptr<PdesTracer> tracer);

} // namespace macrosim

#endif // MACROSIM_WORKLOADS_PDES_DRIVER_HH
