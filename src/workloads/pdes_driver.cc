#include "workloads/pdes_driver.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace macrosim
{

PdesModel
buildPdesModel(const PdesNetworkFactory &make_net, std::uint32_t lps,
               std::size_t threads, std::uint64_t seed,
               std::uint32_t min_message_bytes)
{
    if (!make_net)
        panic("buildPdesModel: empty network factory");
    if (lps == 0)
        lps = 1;

    // Probe replica: partitionability and site count are config
    // properties, identical across replicas.
    std::uint32_t sites = 0;
    PdesPartition partition = PdesPartition::Colocated;
    {
        Simulator probe(seed);
        std::unique_ptr<Network> net = make_net(probe);
        sites = net->config().siteCount();
        partition = net->pdesPartition();
    }

    PdesModel model;
    model.effectiveLps = partition == PdesPartition::BySourceSite
        ? std::min(lps, sites)
        : 1;
    model.sched = std::make_unique<PdesScheduler>(model.effectiveLps,
                                                  threads, seed);
    model.sched->setSitePartition(
        PdesScheduler::blockPartition(sites, model.effectiveLps));
    model.nets.reserve(model.effectiveLps);
    for (std::uint32_t i = 0; i < model.effectiveLps; ++i) {
        model.nets.push_back(make_net(model.sched->simOf(i)));
        model.nets.back()->bindPdes(*model.sched, i, min_message_bytes);
    }
    model.sched->setLookahead(
        model.nets.front()->pdesLookahead(min_message_bytes));
    return model;
}

std::unique_ptr<PdesTracer>
armPdesObservability(PdesModel &model, const PdesObservability *obs)
{
    if (obs == nullptr)
        return nullptr;
    model.sched->setMetricsTiming(obs->timing);
    if (obs->profile) {
        for (std::uint32_t i = 0; i < model.effectiveLps; ++i)
            model.sched->simOf(i).events().setProfiling(true);
    }
    if (obs->trace != nullptr)
        return std::make_unique<PdesTracer>(*model.sched);
    return nullptr;
}

void
finishPdesObservability(PdesModel &model,
                        const PdesObservability *obs,
                        std::unique_ptr<PdesTracer> tracer)
{
    if (obs == nullptr)
        return;
    if (tracer != nullptr && obs->trace != nullptr)
        tracer->finish(*obs->trace);
    if (obs->profile && obs->profileOut != nullptr) {
        // Fixed LP order: the fold's *layout* is thread-count
        // invariant even though the wall times inside are not.
        std::ostringstream os;
        for (std::uint32_t i = 0; i < model.effectiveLps; ++i) {
            os << "[pdes lp" << i << " event profile]\n";
            model.sched->simOf(i).events().dumpProfile(os);
        }
        *obs->profileOut = os.str();
    }
    if (obs->metricsOut != nullptr) {
        std::ostringstream os;
        model.sched->telemetry().dump(os);
        *obs->metricsOut = os.str();
    }
}

} // namespace macrosim
