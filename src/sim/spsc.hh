/**
 * @file
 * Single-producer / single-consumer channel that moves entries in
 * batches, handed over under a mutex.
 *
 * The PDES scheduler wires one channel per ordered LP pair; the LP
 * that owns the source end is the only producer and the LP that owns
 * the destination end is the only consumer. The producer stages
 * entries into a batch only it touches, then makes the whole batch
 * visible with one publish(): one lock, one swap (or one append when
 * the consumer has not yet taken the last batch) and one release
 * store of the pending flag. The consumer's drain() reads that flag
 * with one acquire load and takes the lock only when a batch is
 * waiting, so a round costs one lock per side per channel that
 * carried traffic, not one per entry.
 *
 * A send never blocks (a blocking channel would deadlock when one
 * worker thread multiplexes both endpoint LPs) and never drops. The
 * three batch buffers (staged, published, taken) trade places on
 * every handoff, so they stop allocating once they have grown to the
 * largest batch, and an idle channel holds no entries at all.
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
    SpscChannel() = default;
    SpscChannel(const SpscChannel &) = delete;
    SpscChannel &operator=(const SpscChannel &) = delete;

    /** Producer side: stage @p v, invisible to the consumer until the
     *  next publish(). */
    void
    stage(const T &v)
    {
        ++posts_;
        staged_.push_back(v);
    }

    /** Producer side: entries staged since the last publish(). */
    std::size_t unpublished() const { return staged_.size(); }

    /** Producer side: make every staged entry visible, in staging
     *  order after any batch the consumer has not taken yet. */
    void
    publish()
    {
        if (staged_.empty())
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        if (published_.empty()) {
            published_.swap(staged_);
        } else {
            published_.insert(published_.end(), staged_.begin(),
                              staged_.end());
            staged_.clear();
        }
        pending_.store(true, std::memory_order_release);
    }

    /**
     * Consumer side: call @p f on every published entry, in staging
     * order. @return entries drained.
     */
    template <typename F>
    std::uint64_t
    drain(F &&f)
    {
        if (!pending_.load(std::memory_order_acquire))
            return 0;
        {
            // Take the batch and hand back last drain's emptied
            // storage for the producer's next swap.
            std::lock_guard<std::mutex> lock(mutex_);
            taken_.swap(published_);
            pending_.store(false, std::memory_order_relaxed);
        }
        for (const T &v : taken_)
            f(v);
        const std::uint64_t n = taken_.size();
        taken_.clear();
        if (n > peak_)
            peak_ = n;
        return n;
    }

    /** Total entries staged (monotonic). Producer-written: read from
     *  the producer thread or after it has quiesced; the PDES
     *  scheduler reads it after the join. */
    std::uint64_t posts() const { return posts_; }

    /** Most entries one drain() took: the largest batch, which is
     *  what the channel's buffers grow to. Consumer-written: read
     *  after the consumer has quiesced. */
    std::uint64_t peakDepth() const { return peak_; }

  private:
    /** Producer-private: the batch being staged and its counter. */
    alignas(64) std::vector<T> staged_;
    std::uint64_t posts_ = 0;
    /** Consumer-private, on its own line so the two endpoint threads
     *  do not false-share: the taken batch and its high-water mark. */
    alignas(64) std::vector<T> taken_;
    std::uint64_t peak_ = 0;
    /** The handoff: published entries not yet taken. */
    alignas(64) std::atomic<bool> pending_{false};
    std::mutex mutex_;
    std::vector<T> published_;
};

} // namespace macrosim

#endif // MACROSIM_SIM_SPSC_HH
