/**
 * @file
 * Bounded single-producer / single-consumer ring with batched
 * publication and an unbounded overflow lane handed over under a
 * mutex.
 *
 * The PDES scheduler wires one channel per ordered LP pair; the LP
 * that owns the source end is the only producer and the LP that owns
 * the destination end is the only consumer. The producer stages
 * entries into the ring without touching shared state, then makes a
 * whole batch visible with one publish() (one release store of the
 * tail); the consumer's drain() takes everything published with one
 * acquire load of the tail and one release store of the head. The
 * producer keeps a private copy of the consumer's head and re-reads
 * the shared one only when the ring looks full, so a healthy round
 * moves each index's cache line once, not once per entry.
 *
 * The ring is deliberately bounded (a runaway producer should feel
 * backpressure in cache footprint, not allocate without limit), but
 * a *blocking* full ring would deadlock when one worker thread
 * multiplexes both endpoint LPs, so an entry that finds the ring
 * full goes to a producer-private overflow batch instead. publish()
 * hands that batch to the consumer whole, under a lock, so a step
 * that outgrows the ring costs one lock, not one per entry, and a
 * spilled entry becomes visible with the rest of its batch. Spills
 * are counted; a healthy run with lookahead-sized batches never
 * takes the lock.
 */

#ifndef MACROSIM_SIM_SPSC_HH
#define MACROSIM_SIM_SPSC_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace macrosim
{

template <typename T>
class SpscChannel
{
  public:
    /** @param capacity Ring size; rounded up to a power of two. */
    explicit SpscChannel(std::size_t capacity = 1024)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        ring_.resize(cap);
        mask_ = cap - 1;
    }

    SpscChannel(const SpscChannel &) = delete;
    SpscChannel &operator=(const SpscChannel &) = delete;

    /**
     * Producer side: stage @p v, invisible to the consumer until the
     * next publish(). It goes into the ring or, once the ring is
     * full, into the overflow batch, which then takes every entry
     * until the publish.
     */
    void
    stage(const T &v)
    {
        ++posts_;
        if (overflow_.empty() && staged_ - headCache_ == ring_.size())
            headCache_ = head_.load(std::memory_order_acquire);
        if (!overflow_.empty() || staged_ - headCache_ == ring_.size()) {
            overflow_.push_back(v);
            ++spills_;
            return;
        }
        ring_[staged_ & mask_] = v;
        ++staged_;
    }

    /** Producer side: entries staged since the last publish(). */
    std::size_t
    unpublished() const
    {
        return staged_ - tail_.load(std::memory_order_relaxed)
            + overflow_.size();
    }

    /** Producer side: make every staged entry visible: the overflow
     *  batch (one lock, taken only when there is one), then the ring
     *  (one release store of the tail). */
    void
    publish()
    {
        if (!overflow_.empty()) {
            std::lock_guard<std::mutex> lock(spillMutex_);
            if (spill_.empty()) {
                spill_.swap(overflow_);
            } else {
                spill_.insert(spill_.end(), overflow_.begin(),
                              overflow_.end());
                overflow_.clear();
            }
            spillPending_.store(true, std::memory_order_release);
        }
        tail_.store(staged_, std::memory_order_release);
    }

    /**
     * Consumer side: call @p f on every published ring entry in
     * staging order, release their slots, then on every published
     * overflow entry. Arrival order across the two lanes is not
     * preserved, which is fine for payloads carrying their own
     * (timestamp, key) ordering. @return entries drained.
     */
    template <typename F>
    std::uint64_t
    drain(F &&f)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        for (std::size_t i = head; i != tail; ++i)
            f(ring_[i & mask_]);
        std::uint64_t n = tail - head;
        if (n > 0)
            head_.store(tail, std::memory_order_release);
        if (spillPending_.load(std::memory_order_acquire)) {
            {
                // Take the batch and hand back last drain's emptied
                // storage, so the three batch buffers stop
                // allocating once they have grown.
                std::lock_guard<std::mutex> lock(spillMutex_);
                taken_.swap(spill_);
                spillPending_.store(false, std::memory_order_relaxed);
            }
            for (const T &v : taken_)
                f(v);
            n += taken_.size();
            taken_.clear();
        }
        if (n > peak_)
            peak_ = n;
        return n;
    }

    std::size_t capacity() const { return ring_.size(); }

    /** Entries that missed the ring (monotonic). Producer-written:
     *  read from the producer thread or after it has quiesced. */
    std::uint64_t spills() const { return spills_; }

    /** Total entries (ring + overflow). Same contract as
     *  spills(); the PDES scheduler reads both after the join. */
    std::uint64_t posts() const { return posts_; }

    /** Most entries one drain() took: the channel's high-water
     *  depth, since between drains the depth only grows.
     *  Consumer-written: read after the consumer has quiesced. */
    std::uint64_t peakDepth() const { return peak_; }

  private:
    std::vector<T> ring_;
    std::size_t mask_ = 0;
    /** The published tail, then producer-private state on the same
     *  line: the staged index, the cached consumer head and the
     *  counters. */
    alignas(64) std::atomic<std::size_t> tail_{0};
    std::size_t staged_ = 0;
    std::size_t headCache_ = 0;
    std::uint64_t posts_ = 0;
    std::uint64_t spills_ = 0;
    std::vector<T> overflow_;
    /** The consumer index, its counter and its taken batch on their
     *  own line, so the two endpoint threads do not false-share. */
    alignas(64) std::atomic<std::size_t> head_{0};
    std::uint64_t peak_ = 0;
    std::vector<T> taken_;
    /** Published overflow batches not yet taken. */
    alignas(64) std::atomic<bool> spillPending_{false};
    std::mutex spillMutex_;
    std::vector<T> spill_;
};

} // namespace macrosim

#endif // MACROSIM_SIM_SPSC_HH
