/**
 * @file
 * Statistics primitives: counters, accumulators and histograms.
 *
 * Modelled loosely on gem5's stats: each SimObject owns stats and
 * registers them in the hierarchical StatRegistry
 * (sim/telemetry/registry.hh) so harnesses can report uniformly.
 */

#ifndef MACROSIM_SIM_STATS_HH
#define MACROSIM_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <vector>

namespace macrosim
{

/** A monotonically increasing scalar count. */
class Counter
{
  public:
    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Streaming summary of a sample set: count, sum, min, max, mean and
 * (population) variance via Welford's algorithm.
 */
class Accumulator
{
  public:
    void sample(double x);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    /** Welford running mean: stable for large-offset samples where
     *  sum()/count() loses low-order bits to cancellation. */
    double mean() const { return count_ ? mean_ : 0.0; }
    double variance() const { return count_ ? m2_ / count_ : 0.0; }
    double stddev() const;

    /**
     * Fold @p other into this accumulator (Chan's parallel Welford
     * update), as if every sample of @p other had been sample()d here.
     * Merging the same accumulators in the same order is bit-exact
     * regardless of how the samples were sharded — the PDES result
     * merge relies on folding per-site accumulators in global site
     * order to stay bit-identical across LP counts.
     */
    void merge(const Accumulator &other);

    void reset() { *this = Accumulator(); }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Fixed-width linear histogram with overflow bucket; supports quantile
 * estimation (linear interpolation within a bucket).
 *
 * Buckets live in chunks of chunkBuckets, each allocated by the first
 * sample that lands in it, so a histogram costs memory only for the
 * part of its range its samples reach.
 */
class Histogram
{
  public:
    /** Buckets per storage chunk. */
    static constexpr std::size_t chunkBuckets = 1024;

    /**
     * @param lo Lower bound of the first bucket.
     * @param hi Upper bound of the last regular bucket.
     * @param buckets Number of regular buckets (>=1).
     */
    Histogram(double lo, double hi, std::size_t buckets);

    void sample(double x);

    std::uint64_t count() const { return total_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t underflow() const { return underflow_; }
    /** NaN / +-inf samples; kept out of the moments and buckets. */
    std::uint64_t nonfinite() const { return nonfinite_; }
    double mean() const { return acc_.mean(); }
    double max() const { return acc_.max(); }

    /**
     * Quantile in [0,1]. When the quantile lands in the overflow
     * bucket the true value is beyond the histogram's range and any
     * in-range answer would silently under-report the tail, so +inf
     * is returned instead; callers can test with std::isinf and
     * consult overflow() for the clipped count.
     */
    double quantile(double q) const;

    /**
     * Add @p other's samples into this histogram. Both must have the
     * same bucketing (fatal otherwise). Bucket counts are integer
     * sums, so merging shards is order-independent; the embedded
     * moments merge via Accumulator::merge (order-sensitive in the
     * last bits — fold shards in a fixed order when bit-identity
     * matters).
     */
    void merge(const Histogram &other);

    /** Every regular bucket's count, in order (a dense copy). */
    std::vector<std::uint64_t> buckets() const;
    double bucketWidth() const { return width_; }
    double lo() const { return lo_; }

    /** Chunks that hold buckets: those a sample has reached. */
    std::size_t chunksHeld() const;

    void reset();

  private:
    double lo_;
    double hi_;
    double width_;
    std::size_t buckets_;
    /** Bucket counts by chunk; empty until a sample lands in it. */
    std::vector<std::vector<std::uint64_t>> chunks_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t nonfinite_ = 0;
    std::uint64_t total_ = 0;
    Accumulator acc_;
};

} // namespace macrosim

#endif // MACROSIM_SIM_STATS_HH
