/**
 * @file
 * Simulator: the top-level container tying together an event queue and
 * a root random-number generator.
 *
 * Every experiment builds one Simulator, constructs model objects that
 * hold a reference to it, and calls run(). There are no globals, so
 * benches can run hundreds of independent simulations in one process.
 */

#ifndef MACROSIM_SIM_SIMULATOR_HH
#define MACROSIM_SIM_SIMULATOR_HH

#include <cstdint>

#include "sim/event.hh"
#include "sim/random.hh"
#include "sim/telemetry/registry.hh"
#include "sim/ticks.hh"

namespace macrosim
{

class Simulator
{
  public:
    explicit Simulator(std::uint64_t seed = 1)
        : rng_(seed)
    {
        events_.regStats(telemetry_, "simcore");
    }

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    EventQueue &events() { return events_; }
    const EventQueue &events() const { return events_; }
    Rng &rng() { return rng_; }

    /**
     * The simulation-wide stat registry. Every model object registers
     * its stats here at construction under a dotted hierarchical name
     * ("simcore.*", "net.<topo>.*", "arch.site<N>.l2.*"), so a
     * harness can dump, snapshot or query one tree per simulation.
     */
    StatRegistry &telemetry() { return telemetry_; }
    const StatRegistry &telemetry() const { return telemetry_; }

    /**
     * Pending events that exist only to observe the simulation
     * (e.g. PeriodicSampler re-arms). Observers consult this count
     * to decide whether *model* work remains: two observers each
     * re-arming because they see the other's pending event would
     * keep the queue alive forever.
     */
    std::uint64_t observerEvents() const { return observerEvents_; }
    void noteObserverScheduled() { ++observerEvents_; }
    void noteObserverDone() { --observerEvents_; }

    Tick now() const { return events_.now(); }

    /**
     * Earliest pending event's tick (maxTick when drained). The PDES
     * scheduler derives each logical process's output horizon from
     * this; see sim/pdes_scheduler.hh.
     */
    Tick nextEventTick() { return events_.peekNextTick(); }

    /**
     * Run until the event queue drains or time reaches @p limit.
     * @return Number of events executed.
     */
    std::uint64_t
    run(Tick limit = maxTick)
    {
        if (observerEvents_ == 0) {
            const std::uint64_t ran = events_.runUntil(limit);
            modelEnd_ = now();
            return ran;
        }
        // Step while model events remain, so modelEnd() stops short
        // of a sampler's trailing sample; the order of execution is
        // runUntil()'s.
        std::uint64_t ran = 0;
        while (events_.size() > observerEvents_
               && events_.peekNextTick() <= limit) {
            events_.runOne();
            ++ran;
        }
        modelEnd_ = now();
        return ran + events_.runUntil(limit);
    }

    /**
     * Tick of the last model event run() executed — any event but an
     * observer's (see observerEvents()). Equals now() unless a
     * sampler's trailing sample fired after the model drained, so a
     * run-length integral (static energy) taken at modelEnd() is the
     * same with or without telemetry.
     */
    Tick modelEnd() const { return modelEnd_; }

  private:
    EventQueue events_;
    Rng rng_;
    StatRegistry telemetry_;
    std::uint64_t observerEvents_ = 0;
    Tick modelEnd_ = 0;
};

} // namespace macrosim

#endif // MACROSIM_SIM_SIMULATOR_HH
