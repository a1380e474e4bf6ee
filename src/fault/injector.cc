#include "fault/injector.hh"

#include "sim/logging.hh"
#include "sim/telemetry/trace.hh"

namespace macrosim
{

namespace
{

/** A channel's health at @p margin_db: down when killed or below
 *  0 dB, derated under the threshold. */
LinkHealth
healthAt(bool killed, double margin_db)
{
    LinkHealth out;
    out.down = killed || margin_db < 0.0;
    if (!out.down && margin_db < FaultInjector::derateThreshold.value())
        out.bandwidthFraction = FaultInjector::deratedFraction;
    return out;
}

} // namespace

FaultInjector::FaultInjector(Simulator &sim, Network &net,
                             FaultSchedule schedule, TraceSink *trace,
                             std::uint32_t trace_pid)
    : sim_(sim), net_(net), schedule_(std::move(schedule)),
      trace_(trace), tracePid_(trace_pid),
      minMarginDb_(marginDb(ChannelState{}))
{
    // Each event hits one target, so neither map grows mid-run.
    channels_.reserve(schedule_.size());
    sites_.reserve(schedule_.size());
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
FaultInjector::marginDb(const ChannelState &st) const
{
    return basePath_.deratedPath(Decibel(st.dropDb + st.wgDb))
        .margin(launchPower - Decibel(st.droopDb),
                receiverSensitivity + Decibel(st.rxDb))
        .value();
}

double
FaultInjector::marginDbOf(const FaultTarget &target) const
{
    const auto it = channels_.find(target.key());
    return marginDb(it != channels_.end() ? it->second : ChannelState{});
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
    ChannelState &st = channels_[ev.target.key()];
    const LinkHealth before = healthAt(st.killed, marginDb(st));

    switch (ev.kind) {
      case FaultKind::LaserDroop:
        st.droopDb += ev.magnitudeDb;
        break;
      case FaultKind::RingDrift:
        st.dropDb += ev.magnitudeDb;
        break;
      case FaultKind::WaveguideCreep:
        st.wgDb += ev.magnitudeDb;
        break;
      case FaultKind::ReceiverDegrade:
        st.rxDb += ev.magnitudeDb;
        break;
      case FaultKind::ChannelKill:
        st.killed = true;
        break;
      case FaultKind::Repair:
        st = ChannelState{};
        break;
      case FaultKind::SiteKill:
        panic("FaultInjector: SiteKill against a channel target");
    }

    const double after_db = marginDb(st);
    const LinkHealth after = healthAt(st.killed, after_db);
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
