#include "fault/injector.hh"

#include "sim/logging.hh"
#include "sim/telemetry/trace.hh"

namespace macrosim
{

FaultInjector::FaultInjector(Simulator &sim, Network &net,
                             FaultSchedule schedule,
                             const FaultModelParams &params,
                             TraceSink *trace, std::uint32_t trace_pid)
    : sim_(sim), net_(net), schedule_(std::move(schedule)),
      params_(params), trace_(trace), tracePid_(trace_pid),
      minMarginDb_(params.basePath
                       .margin(params.launch, params.sensitivity)
                       .value())
{
    // Flatten the base path once: the per-element loss terms, in path
    // order, are exactly what totalLoss() folds — keeping them as a
    // dense array lets foldMargin() replay the identical operation
    // sequence without rebuilding (and heap-copying) the path.
    baseExtraDb_ = params_.basePath.extraLoss().value();
    elemLossDb_.reserve(params_.basePath.elements().size());
    for (const PathElement &e : params_.basePath.elements()) {
        elemLossDb_.push_back(
            (properties(e.component).insertionLoss * e.count).value());
    }
    launchDbm_ = params_.launch.value();
    sensitivityDbm_ = params_.sensitivity.value();

    // Seed one degradation lane per faultable link of the topology,
    // so sweepMargins() covers the whole network from the start.
    for (const auto &[a, b] : net_.faultableLinks())
        laneFor(FaultTarget{FaultTarget::Scope::Channel, a, b}.key());

    registerStats();
}

void
FaultInjector::registerStats()
{
    StatRegistry &reg = sim_.telemetry();
    const std::string prefix = reg.uniquePrefix("fault");
    reg.add(prefix + ".injected", [this] {
        return static_cast<double>(injected_);
    });
    reg.add(prefix + ".repairs", [this] {
        return static_cast<double>(repairs_);
    });
    reg.add(prefix + ".links_down", [this] {
        return static_cast<double>(linksDown_);
    });
    reg.add(prefix + ".derated", [this] {
        return static_cast<double>(derated_);
    });
    reg.add(prefix + ".site_kills", [this] {
        return static_cast<double>(sitesDown_);
    });
    reg.add(prefix + ".min_margin_db", [this] {
        return minMarginDb_;
    });
    reg.add(prefix + ".tracked_links", [this] {
        return static_cast<double>(laneKeys_.size());
    });
}

std::uint32_t
FaultInjector::laneFor(std::uint64_t key)
{
    const auto it = laneIndex_.find(key);
    if (it != laneIndex_.end())
        return it->second;
    const auto i = static_cast<std::uint32_t>(laneKeys_.size());
    laneKeys_.push_back(key);
    droopDb_.push_back(0.0);
    dropDb_.push_back(0.0);
    wgDb_.push_back(0.0);
    rxDb_.push_back(0.0);
    killed_.push_back(0);
    // A fresh lane's margin is the base margin; cache it directly so
    // construction does not pay one evaluate per faultable link.
    marginDb_.push_back(params_.basePath
                            .margin(params_.launch, params_.sensitivity)
                            .value());
    laneIndex_.try_emplace(key, i);
    return i;
}

void
FaultInjector::arm()
{
    if (armed_)
        panic("FaultInjector::arm: already armed");
    armed_ = true;
    armedEvents_ = schedule_.ordered();
    for (std::size_t i = 0; i < armedEvents_.size(); ++i) {
        sim_.events().schedule(armedEvents_[i].at,
                               [this, i] { apply(armedEvents_[i]); },
                               "fault.inject");
    }
}

double
FaultInjector::foldMargin(double droop_db, double drop_db, double wg_db,
                          double rx_db) const
{
    // The accumulated soft degradation re-runs the section 2 budget,
    // basePath.deratedPath(drop + wg).margin(launch - droop,
    // sensitivity + rx), in that object path's operation order:
    // totalLoss() starts from the extra (derate) loss and folds each
    // element's term in path order; margin is (launch - loss) -
    // sensitivity. Keeping the fold order makes the result
    // bit-identical to the photonics arithmetic despite FP
    // non-associativity.
    double total = baseExtraDb_ + (drop_db + wg_db);
    for (const double term : elemLossDb_)
        total += term;
    return ((launchDbm_ - droop_db) - total) - (sensitivityDbm_ + rx_db);
}

double
FaultInjector::marginOfLane(std::uint32_t i) const
{
    return foldMargin(droopDb_[i], dropDb_[i], wgDb_[i], rxDb_[i]);
}

LinkHealth
FaultInjector::healthAt(std::uint32_t i, double margin_db) const
{
    LinkHealth out;
    out.down = killed_[i] != 0 || margin_db < 0.0;
    if (!out.down && margin_db < params_.derateThreshold.value())
        out.bandwidthFraction = params_.deratedFraction;
    return out;
}

double
FaultInjector::sweepMargins()
{
    if (laneKeys_.empty()) {
        return params_.basePath
            .margin(params_.launch, params_.sensitivity)
            .value();
    }
    // One flat pass over the lanes: no path copies, no Decibel
    // temporaries.
    for (std::uint32_t i = 0; i < marginDb_.size(); ++i)
        marginDb_[i] = marginOfLane(i);
    double min = marginDb_[0];
    for (const double m : marginDb_)
        min = m < min ? m : min;
    return min;
}

double
FaultInjector::marginDbOf(const FaultTarget &target) const
{
    const auto it = laneIndex_.find(target.key());
    if (it != laneIndex_.end())
        return marginOfLane(it->second);
    // Unknown target: fresh health, base margin.
    return foldMargin(0.0, 0.0, 0.0, 0.0);
}

void
FaultInjector::apply(const FaultEvent &ev)
{
    if (ev.target.scope == FaultTarget::Scope::Site)
        applySite(ev);
    else
        applyChannel(ev);

    if (trace_) {
        trace_->instant(std::string(faultKindName(ev.kind)) + " "
                            + ev.target.name(net_),
                        "fault", tracePid_, 0, sim_.now());
    }
}

void
FaultInjector::applyChannel(const FaultEvent &ev)
{
    const std::uint32_t lane = laneFor(ev.target.key());
    const double before_db = marginOfLane(lane);
    const LinkHealth before = healthAt(lane, before_db);

    switch (ev.kind) {
      case FaultKind::LaserDroop:
        droopDb_[lane] += ev.magnitudeDb;
        break;
      case FaultKind::RingDrift:
        dropDb_[lane] += ev.magnitudeDb;
        break;
      case FaultKind::WaveguideCreep:
        wgDb_[lane] += ev.magnitudeDb;
        break;
      case FaultKind::ReceiverDegrade:
        rxDb_[lane] += ev.magnitudeDb;
        break;
      case FaultKind::ChannelKill:
        killed_[lane] = 1;
        break;
      case FaultKind::Repair:
        droopDb_[lane] = 0.0;
        dropDb_[lane] = 0.0;
        wgDb_[lane] = 0.0;
        rxDb_[lane] = 0.0;
        killed_[lane] = 0;
        break;
      case FaultKind::SiteKill:
        panic("FaultInjector: SiteKill against a channel target");
    }

    const double after_db = marginOfLane(lane);
    marginDb_[lane] = after_db;
    const LinkHealth after = healthAt(lane, after_db);
    if (!net_.applyLinkHealth(ev.target.a, ev.target.b, after)) {
        warn_once("fault: network '", net_.name(),
                  "' has no channel (", ev.target.a, ", ",
                  ev.target.b, "); event ignored");
        return;
    }

    if (ev.kind == FaultKind::Repair)
        ++repairs_;
    else
        ++injected_;
    if (after_db < minMarginDb_)
        minMarginDb_ = after_db;

    const bool was_derated = !before.down
        && before.bandwidthFraction < 1.0;
    const bool is_derated = !after.down
        && after.bandwidthFraction < 1.0;
    if (after.down && !before.down)
        ++linksDown_;
    else if (!after.down && before.down)
        --linksDown_;
    if (is_derated && !was_derated)
        ++derated_;
    else if (!is_derated && was_derated)
        --derated_;
}

void
FaultInjector::applySite(const FaultEvent &ev)
{
    bool &dead = sites_[ev.target.key()];
    const bool was_dead = dead;
    dead = ev.kind != FaultKind::Repair;
    if (!net_.applySiteHealth(ev.target.a, dead)) {
        dead = was_dead;
        warn_once("fault: network '", net_.name(),
                  "' has no per-site routing resource; site event "
                  "ignored");
        return;
    }

    if (ev.kind == FaultKind::Repair)
        ++repairs_;
    else
        ++injected_;
    if (dead && !was_dead)
        ++sitesDown_;
    else if (!dead && was_dead)
        --sitesDown_;
}

} // namespace macrosim
