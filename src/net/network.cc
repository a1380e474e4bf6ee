#include "net/network.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "photonics/link_budget.hh"
#include "sim/logging.hh"

namespace macrosim
{

Network::Network(Simulator &sim, const MacrochipConfig &config)
    : sim_(sim), config_(config), geometry_(config.geometry()),
      handlers_(config.siteCount())
{
}

void
Network::inject(Message msg)
{
    if (msg.src >= config_.siteCount() || msg.dst >= config_.siteCount())
        panic("Network::inject: site out of range (src=", msg.src,
              " dst=", msg.dst, ")");
    if (pdes_) {
        if (!ownsSite(msg.src)) {
            panic("Network::inject: site ", msg.src, " is owned by LP ",
                  pdes_->lpOfSite(msg.src), ", not this replica's LP ",
                  pdesLp_);
        }
        if (msg.bytes < pdesMinBytes_) {
            panic("Network::inject: ", msg.bytes, "-byte message below "
                  "the ", pdesMinBytes_, "-byte floor the PDES "
                  "lookahead was derived from");
        }
        if (msg.id == 0) {
            msg.id = ((static_cast<MessageId>(msg.src) + 1) << 40)
                | ++pdesSeq_[msg.src];
        }
    } else if (msg.id == 0) {
        msg.id = nextId_++;
    }
    msg.injected = now();
    if (msg.created == 0)
        msg.created = msg.injected;
    ++stats_.injected;

    if (msg.src == msg.dst) {
        // Intra-site traffic uses a single-cycle electrical loopback
        // (section 6.2); it consumes no optical resources.
        deliverAt(msg, now() + cycle());
        return;
    }
    route(std::move(msg));
}

void
Network::deliverAt(const Message &msg, Tick when)
{
    if (!pdes_) {
        sim_.events().schedule(when, [this, m = msg]() mutable {
            finishDelivery(m);
        }, "net.deliver");
        return;
    }
    // Keyed even when the destination is local: same-tick deliveries
    // must order by message id for every partition, including the
    // degenerate single-LP one the determinism tests compare against.
    if (ownsSite(msg.dst)) {
        sim_.events().scheduleKeyed(when, msg.id,
                                    [this, m = msg]() mutable {
            finishDelivery(m);
        }, "net.deliver");
        return;
    }
    static_assert(sizeof(Message) <= pdesMaxPayload,
                  "Message must fit a cross-LP event payload");
    PdesEvent ev;
    ev.when = when;
    ev.key = msg.id;
    ev.apply = &Network::applyDeliver;
    std::memcpy(ev.payload, &msg, sizeof(Message));
    pdesRoute(msg.dst, ev, "net.deliver");
}

void
Network::useArrivalFifos(std::size_t count)
{
    if (count > std::numeric_limits<std::uint32_t>::max())
        fatal("network '", name(), "': ", count,
              " arrival FIFOs exceed the 32-bit index");
    arrivalFifos_ = static_cast<std::uint32_t>(count);
}

void
Network::queueArrival(std::uint32_t fifo, Tick when, const Message &msg,
                      Leg leg, std::uint32_t arg)
{
    if (pdes_) {
        if (leg == Leg::Deliver) {
            deliverAt(msg, when);
            return;
        }
        sim_.events().schedule(when, [this, m = msg, leg, arg]() mutable {
            runLeg(leg, std::move(m), arg);
        }, legTag(leg));
        return;
    }
    if (++queued_ > peakQueued_)
        peakQueued_ = queued_;
    if (!arrivals_)
        arrivals_ = std::make_unique<ArrivalFifos>(arrivalFifos_);
    const std::uint64_t seq = sim_.events().reserveSeq();
    if (arrivals_->push(fifo, when, seq, msg, leg, arg))
        fileHead(fifo, when, seq, msg, leg, arg);
}

void
Network::fileHead(std::uint32_t fifo, Tick when, std::uint64_t seq,
                  const Message &msg, Leg leg, std::uint32_t arg)
{
    sim_.events().scheduleReserved(when, seq,
                                   [this, fifo, m = msg, leg, arg]() mutable {
        runHead(fifo, m, leg, arg);
    }, legTag(leg));
}

void
Network::runHead(std::uint32_t fifo, Message &msg, Leg leg,
                 std::uint32_t arg)
{
    // The next head sorts after this one, so filing it before the leg
    // runs cannot reorder anything, and a leg that queues on this FIFO
    // again (a two-phase re-arbitration) waits behind it.
    arrivals_->advance(fifo, [this, fifo](const Arrival &next) {
        fileHead(fifo, next.when, next.seq, next.msg, next.leg, next.arg);
    });
    --queued_;
    if (leg == Leg::Deliver)
        finishDelivery(msg);
    else
        runLeg(leg, std::move(msg), arg);
}

void
Network::runLeg(Leg leg, Message msg, std::uint32_t arg)
{
    (void)arg;
    panic("network '", name(), "' has no leg ", static_cast<int>(leg),
          " (packet ", msg.id, ")");
}

void
Network::finishDelivery(Message &msg)
{
    msg.delivered = now();
    ++stats_.delivered;
    stats_.bytesDelivered += msg.bytes;
    stats_.latencyNs.sample(ticksToNs(msg.delivered - msg.created));
    if (observer_)
        observer_(msg);
    const Handler &h = handlers_[msg.dst] ? handlers_[msg.dst]
                                          : defaultHandler_;
    if (h)
        h(msg);
}

void
Network::applyDeliver(void *target, const void *payload)
{
    Message msg;
    std::memcpy(&msg, payload, sizeof(Message));
    static_cast<Network *>(target)->finishDelivery(msg);
}

Tick
Network::pdesLookahead(std::uint32_t /*min_bytes*/) const
{
    return std::max<Tick>(
        MacrochipGeometry::waveguideDelay(config_.sitePitchCm), 1);
}

void
Network::bindPdes(PdesScheduler &sched, std::uint32_t lp,
                  std::uint32_t min_bytes)
{
    if (pdes_)
        panic("Network::bindPdes: '", name(), "' is already bound");
    if (&sched.simOf(lp) != &sim_) {
        panic("Network::bindPdes: replica for LP ", lp,
              " was not built on that LP's Simulator");
    }
    if (sched.sitePartition().size() != config_.siteCount()) {
        panic("Network::bindPdes: scheduler partitions ",
              sched.sitePartition().size(), " sites, config has ",
              config_.siteCount());
    }
    if (sched.lpCount() > 1
        && pdesPartition() == PdesPartition::Colocated) {
        panic("network '", name(), "' has globally shared state and "
              "cannot split across ", sched.lpCount(),
              " logical processes; run it colocated on one LP");
    }
    pdes_ = &sched;
    pdesLp_ = lp;
    pdesMinBytes_ = min_bytes;
    pdesSeq_.assign(config_.siteCount(), 0);
    sched.setTarget(lp, this);
    dropForeignState();
}

void
Network::pdesRoute(SiteId dst_site, PdesEvent &ev, const char *tag)
{
    const std::uint32_t dst_lp = pdes_->lpOfSite(dst_site);
    if (dst_lp == pdesLp_) {
        ev.target = this;
        schedulePdesEvent(sim_.events(), ev, tag);
        return;
    }
    ev.target = pdes_->target(dst_lp);
    if (!ev.target) {
        panic("Network::pdesRoute: LP ", dst_lp,
              " has no bound replica (bindPdes every LP first)");
    }
    pdes_->post(pdesLp_, dst_lp, ev);
}

void
Network::dropPacket(Message msg, const char *reason)
{
    if (retry_.enabled() && msg.attempts + 1u < retry_.maxAttempts) {
        // Retry through route() directly (not inject()) so injection
        // stats count the packet once. Exponential backoff spreads
        // re-attempts out so a transient fault can clear.
        ++msg.attempts;
        ++stats_.retries;
        const Tick backoff = retry_.backoffBase
            << (msg.attempts > 1 ? msg.attempts - 1 : 0);
        sim_.events().schedule(now() + (backoff > 0 ? backoff : 1),
                               [this, msg]() mutable {
            route(std::move(msg));
        }, "net.retry");
        return;
    }
    if (retry_.enabled() || dropHandler_) {
        ++stats_.dropped;
        if (dropHandler_)
            dropHandler_(msg);
        return;
    }
    fatal("network '", name(), "': packet ", msg.id, " (site ",
          msg.src, " -> ", msg.dst, ") undeliverable: ", reason);
}

double
Network::laserWatts() const
{
    double watts = 0.0;
    for (const auto &spec : opticalPower())
        watts += spec.watts();
    return watts;
}

OpticalPath
Network::worstCaseLink() const
{
    double worst = 1.0;
    for (const LaserPowerSpec &spec : opticalPower())
        worst = std::max(worst, spec.lossFactor);
    return unswitchedLinkFor(config_.rows, config_.cols,
                             config_.sitePitchCm)
        .deratedPath(Decibel::fromLinear(worst));
}

LinkFeasibility
Network::feasibility() const
{
    return assessLink(worstCaseLink());
}

double
Network::staticWatts() const
{
    const ComponentCounts counts = componentCounts();
    const double tuning_w = tuningMwPerWavelength * 1e-3
        * static_cast<double>(counts.transmitters + counts.receivers);
    const double switch_w = properties(Component::Switch)
        .staticPower.value * 1e-3
        * static_cast<double>(counts.opticalSwitches);
    return laserWatts() + tuning_w + switch_w;
}

void
Network::primeEnergyModel()
{
    energy_.setStaticWatts(staticWatts());
    // The paper engineers every link to the 17 dB un-switched budget
    // with 4 dB of margin (launch 0 dBm, sensitivity -21 dBm). A
    // laser power-loss factor above the margin's linear equivalent
    // means this topology's extra loss has eaten through the margin
    // and the link no longer closes at base launch power.
    const Decibel margin =
        (launchPower - receiverSensitivity) - unswitchedLinkBudget;
    for (const LaserPowerSpec &spec : opticalPower()) {
        if (spec.lossFactor > margin.linear()) {
            warn_once("network '", name(), "' subnetwork '", spec.name,
                      "': laser power-loss factor ", spec.lossFactor,
                      " exceeds the ", margin.value(),
                      " dB link margin (factor ", margin.linear(),
                      "); links need extra launch power to close");
        }
    }
}

void
Network::registerStats(StatRegistry &registry,
                       const std::string &prefix)
{
    registry.addCounter(prefix + ".injected", stats_.injected);
    registry.addCounter(prefix + ".delivered", stats_.delivered);
    registry.addCounter(prefix + ".bytes", stats_.bytesDelivered);
    registry.addMean(prefix + ".latency_ns", stats_.latencyNs);
    registry.addCounter(prefix + ".dropped", stats_.dropped);
    registry.addCounter(prefix + ".retries", stats_.retries);
    const EnergyModel *e = &energy_;
    registry.add(prefix + ".optical_bits", [e] {
        return static_cast<double>(e->opticalBits());
    });
    registry.add(prefix + ".router_bytes", [e] {
        return static_cast<double>(e->routerBytes());
    });
    if (arrivalFifos_ > 0) {
        registry.add(prefix + ".queued", [this] {
            return static_cast<double>(queued_);
        });
        registry.add(prefix + ".peak_queued", [this] {
            return static_cast<double>(peakQueued_);
        });
    }
}

void
Network::registerTelemetry()
{
    statPrefix_ = sim_.telemetry().uniquePrefix(
        "net." + std::string(statName()));
    registerStats(sim_.telemetry(), statPrefix_);
}

} // namespace macrosim
