/**
 * @file
 * Channel-owned arrival FIFOs: the packets queued behind a busy
 * channel, kept out of the event queue.
 *
 * Past saturation a busy-until channel takes packets faster than it
 * lands them, and each one waiting for its arrival used to be a
 * pending event: a 24-byte queue record plus a 144-byte callback slot
 * holding the packet. Now every packet a channel sends queues its
 * arrival in the channel's FIFO, and only the FIFO's head is an
 * event; the arrivals behind it wait here. That changes no event's
 * place in the pop order, because:
 *
 *  - on one FIFO, arrivals never decrease (each call site keys its
 *    FIFO so that this holds), and
 *  - each arrival carries the seq a schedule() at transmit time would
 *    have taken (EventQueue::reserveSeq()), and is filed under that
 *    seq when it becomes the head, so same-tick order follows the
 *    transmit order.
 *
 * Arrivals behind the head thus sort after it, and the head sorts
 * after everything the queue pops before it; the next head is filed
 * while the previous one runs, before anything later can pop. An
 * arrival earlier than the one before it panics: here when the one
 * before it waits here too, else when the event queue refuses to file
 * it in the past.
 *
 * The head keeps its packet in its event slot, so a FIFO that rarely
 * holds more than one arrival costs its packets little more than plain
 * events. The arrivals behind it live in one pool of 104-byte entries
 * in fixed-size chunks, which never move and are not touched before
 * their first use. Each FIFO is a (head, tail) pair of cell indices
 * chained through the entries' `next`, and freed cells chain the same
 * way, so no queue owns a container. A network builds its FIFO table
 * and pool on its first queued arrival, so a PDES-bound replica, which
 * never queues one, has neither.
 */

#ifndef MACROSIM_NET_ARRIVAL_FIFO_HH
#define MACROSIM_NET_ARRIVAL_FIFO_HH

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "net/message.hh"
#include "sim/ticks.hh"

namespace macrosim
{

/** What a queued arrival does when it lands. */
enum class Leg : std::uint8_t
{
    Deliver, ///< Final delivery to the destination site.
    Forward, ///< Limited pt2pt: the forwarder's second hop.
    Bridge,  ///< Hermes: the source gateway's bridge leg.
    Ring,    ///< Hermes: the destination gateway's ring leg.
    Slot,    ///< Two-phase: the granted data slot.
};

/** Profiler tag of @p leg's events, as each was always tagged. */
constexpr const char *
legTag(Leg leg)
{
    switch (leg) {
      case Leg::Deliver: return "net.deliver";
      case Leg::Forward: return "net.lpt2pt.forward";
      case Leg::Bridge: return "net.hermes.bridge";
      case Leg::Ring: return "net.hermes.ring";
      case Leg::Slot: return "net.2phase.slot";
    }
    return nullptr;
}

/** One arrival waiting behind its FIFO's head, built and consumed in
 *  its pool cell. */
struct Arrival
{
    Tick when;
    /** The seq reserved at transmit time (EventQueue::reserveSeq()). */
    std::uint64_t seq;
    Message msg;
    /** Next cell of the same FIFO (or of the free list). */
    std::uint32_t next;
    Leg leg : 8;
    /** The leg's argument: limited pt2pt's forwarder, two-phase's
     *  channel width. */
    std::uint32_t arg : 24;
};

static_assert(sizeof(Arrival) == 104, "Arrival should stay 104 bytes");
static_assert(std::is_trivially_destructible_v<Arrival>);

class ArrivalFifos
{
  public:
    /** Largest leg argument an entry holds. */
    static constexpr std::uint32_t maxArg = (1u << 24) - 1;

    /** Cells per pool chunk (104 KiB). */
    static constexpr std::uint32_t cellsPerChunk = 1024;

    /** @p count idle FIFOs, numbered from 0. */
    explicit ArrivalFifos(std::uint32_t count) : fifos_(count) {}
    ~ArrivalFifos();

    ArrivalFifos(const ArrivalFifos &) = delete;
    ArrivalFifos &operator=(const ArrivalFifos &) = delete;

    /**
     * Queue an arrival on @p fifo. When the FIFO is idle the arrival
     * is its new head, which the caller files as an event itself;
     * otherwise it waits in the pool, built in place.
     * @pre when is no earlier than the FIFO's last waiting arrival
     *      (panics otherwise).
     * @return Whether the arrival is the FIFO's new head.
     */
    bool
    push(std::uint32_t fifo, Tick when, std::uint64_t seq,
         const Message &msg, Leg leg, std::uint32_t arg)
    {
        if (arg > maxArg)
            argPanic(arg);
        Fifo &f = fifos_[fifo];
        if (f.tail == none) {
            f.tail = headOnly;
            return true;
        }
        if (f.tail != headOnly && when < cell(f.tail).when)
            orderPanic(fifo, when);
        const std::uint32_t c = take();
        std::construct_at(&cell(c),
                          Arrival{when, seq, msg, none, leg, arg});
        if (f.tail == headOnly)
            f.head = c;
        else
            cell(f.tail).next = c;
        f.tail = c;
        return false;
    }

    /**
     * The head of @p fifo has run. If an arrival waits behind it, it
     * becomes the head: @p file(const Arrival &) files it as an event,
     * and its cell is freed. Otherwise the FIFO goes idle.
     */
    template <typename F>
    void
    advance(std::uint32_t fifo, F &&file)
    {
        Fifo &f = fifos_[fifo];
        const std::uint32_t c = f.head;
        if (c == none) {
            f.tail = none;
            return;
        }
        Arrival &a = cell(c);
        f.head = a.next;
        if (f.head == none)
            f.tail = headOnly;
        file(static_cast<const Arrival &>(a));
        a.next = free_;
        free_ = c;
    }

  private:
    static constexpr std::uint32_t none = ~std::uint32_t{0};
    /** Tail of a FIFO whose head is an event and has none behind it. */
    static constexpr std::uint32_t headOnly = none - 1;

    /** An idle FIFO has tail none. Otherwise its head is an event, and
     *  head .. tail chain the arrivals waiting behind it (head none
     *  and tail headOnly when there are none). */
    struct Fifo
    {
        std::uint32_t head = none;
        std::uint32_t tail = none;
    };

    Arrival &
    cell(std::uint32_t c)
    {
        return chunks_[c / cellsPerChunk][c % cellsPerChunk];
    }

    const Arrival &
    cell(std::uint32_t c) const
    {
        return chunks_[c / cellsPerChunk][c % cellsPerChunk];
    }

    /** A free cell: recycled, else the next never-used one. */
    std::uint32_t
    take()
    {
        if (free_ != none) {
            const std::uint32_t c = free_;
            free_ = cell(c).next;
            return c;
        }
        if (used_ == chunks_.size() * cellsPerChunk)
            grow();
        return used_++;
    }

    void grow();
    [[noreturn]] void orderPanic(std::uint32_t fifo, Tick when) const;
    [[noreturn]] static void argPanic(std::uint32_t arg);

    std::vector<Fifo> fifos_;
    std::vector<Arrival *> chunks_;
    /** Cells handed out at least once; the rest are untouched. */
    std::uint32_t used_ = 0;
    std::uint32_t free_ = none;
};

} // namespace macrosim

#endif // MACROSIM_NET_ARRIVAL_FIFO_HH
