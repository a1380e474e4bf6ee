// perfbench/ is frozen with the benchmark and still reaches the
// network factory through this namespace. The next benchmark change
// deletes this header.

#ifndef MACROSIM_SERVICE_CAMPAIGN_HH
#define MACROSIM_SERVICE_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "net/factory.hh"
#include "sim/simulator.hh"
#include "workloads/packet_injector.hh"
#include "workloads/trace_cpu.hh"

namespace macrosim::service
{

using macrosim::makeNetworkFor;
using macrosim::NetSel;
using macrosim::netDisplayName;
using macrosim::netShortName;

} // namespace macrosim::service

#endif // MACROSIM_SERVICE_CAMPAIGN_HH
