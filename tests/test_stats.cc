/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/telemetry/registry.hh"

namespace
{

using namespace macrosim;

TEST(Counter, IncrementsAndAdds)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.min(), 0.0);
    EXPECT_EQ(a.max(), 0.0);
    EXPECT_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, BasicMoments)
{
    Accumulator a;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        a.sample(x);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_NEAR(a.stddev(), 2.0, 1e-12);
}

TEST(Accumulator, NegativeValues)
{
    Accumulator a;
    a.sample(-3.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), -3.0);
}

TEST(Accumulator, WelfordMeanIsStableForLargeOffsets)
{
    // Regression: mean() used to return sum()/count() while sample()
    // maintained the Welford mean for the variance — and the two
    // diverge on large offsets. 100k samples of the same 1e9+0.1
    // value drift sum()/count() by ~1e-3; the Welford mean (delta is
    // exactly zero after the first sample) must stay exact.
    Accumulator a;
    const double x0 = 1e9 + 0.1;
    for (int i = 0; i < 100000; ++i)
        a.sample(x0);
    EXPECT_DOUBLE_EQ(a.mean(), x0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);

    // Alternating +-0.25 around the offset: mean recovers the offset
    // and the deviation survives the offset's magnitude.
    Accumulator b;
    for (int i = 0; i < 10000; ++i)
        b.sample(1e9 + (i % 2 ? 0.25 : -0.25));
    EXPECT_NEAR(b.mean(), 1e9, 1e-5);
    EXPECT_NEAR(b.stddev(), 0.25, 1e-6);
}

TEST(Histogram, RejectsBadRange)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), FatalError);
    EXPECT_THROW(Histogram(0.0, 10.0, 0), FatalError);
}

TEST(Histogram, BucketsSamplesCorrectly)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(i + 0.5);
    EXPECT_EQ(h.count(), 10u);
    for (auto b : h.buckets())
        EXPECT_EQ(b, 1u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
}

TEST(Histogram, OverUnderflow)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(-1.0);
    h.sample(10.0); // hi bound counts as overflow (half-open range)
    h.sample(100.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, NonFiniteSamplesAreQuarantined)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(5.0);
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(std::numeric_limits<double>::infinity());
    h.sample(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.nonfinite(), 3u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    // The moments only see the finite sample.
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_DOUBLE_EQ(h.max(), 5.0);
    std::uint64_t binned = 0;
    for (auto b : h.buckets())
        binned += b;
    EXPECT_EQ(binned, 1u);
    h.reset();
    EXPECT_EQ(h.nonfinite(), 0u);
}

TEST(Histogram, QuantileMedianOfUniform)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
    EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
}

TEST(Histogram, QuantileEmpty)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(5.0);
    h.sample(50.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(Accumulator, MergeMatchesDirectSampling)
{
    // The PDES drivers shard samples per site and fold shards with
    // merge(); the fold must agree with sampling everything into one
    // accumulator (Chan's parallel-Welford update).
    Accumulator whole, left, right;
    const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0,
                         -1.0, 12.5, 0.25, 3.75};
    int i = 0;
    for (double x : xs) {
        whole.sample(x);
        (i++ % 2 ? right : left).sample(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
    EXPECT_DOUBLE_EQ(left.mean(), whole.mean());
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
    EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-12);
}

TEST(Accumulator, MergeWithEmptyIsIdentity)
{
    Accumulator a, empty;
    a.sample(3.0);
    a.sample(7.0);

    Accumulator b = a;
    b.merge(empty);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 5.0);

    Accumulator c = empty;
    c.merge(a);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_DOUBLE_EQ(c.mean(), 5.0);
    EXPECT_DOUBLE_EQ(c.min(), 3.0);
    EXPECT_DOUBLE_EQ(c.max(), 7.0);
}

TEST(Histogram, MergeAddsBinsAndSpecialBuckets)
{
    Histogram a(0.0, 10.0, 5), b(0.0, 10.0, 5);
    a.sample(1.0);
    a.sample(-2.0);
    b.sample(1.5);
    b.sample(9.0);
    b.sample(42.0);
    b.sample(std::numeric_limits<double>::quiet_NaN());
    a.merge(b);
    EXPECT_EQ(a.count(), 6u);
    EXPECT_EQ(a.buckets()[0], 2u); // 1.0 and 1.5
    EXPECT_EQ(a.buckets()[4], 1u); // 9.0
    EXPECT_EQ(a.underflow(), 1u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_EQ(a.nonfinite(), 1u);

    Histogram incompatible(0.0, 10.0, 4);
    EXPECT_THROW(a.merge(incompatible), FatalError);
}

TEST(Histogram, QuantileInOverflowReportsInf)
{
    // When the requested quantile lands among samples clipped past
    // the cap, a finite answer would under-report the tail; the
    // injector relies on +inf to keep saturated load points honest.
    Histogram h(0.0, 10.0, 5);
    for (int i = 0; i < 90; ++i)
        h.sample(5.0);
    for (int i = 0; i < 10; ++i)
        h.sample(1000.0);
    EXPECT_TRUE(std::isfinite(h.quantile(0.5)));
    EXPECT_TRUE(std::isinf(h.quantile(0.99)));
    EXPECT_GT(h.quantile(0.99), 0.0); // +inf, not -inf
}

/** The dense histogram the chunked one replaced: every bucket in one
 *  array from the start, the same binning and quantile walk. */
struct DenseHistogram
{
    DenseHistogram(double lo_in, double hi_in, std::size_t buckets)
        : lo(lo_in), hi(hi_in),
          width((hi_in - lo_in) / static_cast<double>(buckets)),
          bins(buckets, 0)
    {}

    void
    sample(double x)
    {
        ++total;
        if (!std::isfinite(x))
            return;
        if (x < lo) {
            ++underflow;
        } else if (x >= hi) {
            ++overflow;
        } else {
            const auto idx = static_cast<std::size_t>((x - lo) / width);
            ++bins[std::min(idx, bins.size() - 1)];
        }
    }

    double
    quantile(double q) const
    {
        if (total == 0)
            return lo;
        q = std::clamp(q, 0.0, 1.0);
        const double target = q * static_cast<double>(total);
        double running = static_cast<double>(underflow);
        if (running >= target && underflow > 0)
            return lo;
        for (std::size_t i = 0; i < bins.size(); ++i) {
            const double in_bin = static_cast<double>(bins[i]);
            if (running + in_bin >= target && in_bin > 0) {
                const double frac = (target - running) / in_bin;
                return lo + (static_cast<double>(i) + frac) * width;
            }
            running += in_bin;
        }
        if (overflow > 0)
            return std::numeric_limits<double>::infinity();
        return hi;
    }

    double lo, hi, width;
    std::vector<std::uint64_t> bins;
    std::uint64_t underflow = 0, overflow = 0, total = 0;
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

const double quantilesChecked[] = {0.0, 1e-9, 0.5, 0.99, 0.999, 1.0};

/** Bucket edges, chunk seams, the range ends, non-finite values and a
 *  sparse random cloud, for a histogram over [lo, hi) x buckets. */
std::vector<double>
edgeSamples(double lo, double hi, std::size_t buckets, std::uint64_t seed)
{
    const double width = (hi - lo) / static_cast<double>(buckets);
    std::vector<double> xs = {
        lo, hi, std::nextafter(hi, lo), std::nextafter(lo, hi),
        lo - width, hi + width,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()};
    for (const std::size_t i :
         {std::size_t{1}, std::size_t{1023}, std::size_t{1024},
          std::size_t{1025}, std::size_t{2048}, buckets - 1, buckets}) {
        if (i <= buckets) {
            const double edge = lo + static_cast<double>(i) * width;
            xs.push_back(edge);
            xs.push_back(std::nextafter(edge, lo));
        }
    }
    // A cloud over the first and last tenths only, so middle chunks
    // stay untouched on the wide histograms.
    Rng rng(seed);
    for (int k = 0; k < 400; ++k) {
        const double u = rng.uniform() * 0.1;
        xs.push_back(k % 2 ? lo + u * (hi - lo) : hi - u * (hi - lo));
    }
    return xs;
}

TEST(HistogramChunks, MatchesDenseModel)
{
    struct Shape { double lo, hi; std::size_t buckets; };
    const Shape shapes[] = {{0.0, 4000.0, 80000}, {0.0, 10.0, 5},
                            {-3.5, 7.25, 3000}, {0.0, 1.0, 1024},
                            {0.0, 1.0, 1025}};
    for (const Shape &sh : shapes) {
        SCOPED_TRACE(testing::Message() << "[" << sh.lo << ", " << sh.hi
                                        << ") x " << sh.buckets);
        Histogram h(sh.lo, sh.hi, sh.buckets);
        DenseHistogram ref(sh.lo, sh.hi, sh.buckets);
        EXPECT_EQ(h.chunksHeld(), 0u);
        for (const double q : quantilesChecked)
            EXPECT_TRUE(sameBits(h.quantile(q), ref.quantile(q))) << q;
        for (const double x : edgeSamples(sh.lo, sh.hi, sh.buckets,
                                          sh.buckets)) {
            h.sample(x);
            ref.sample(x);
        }
        EXPECT_EQ(h.count(), ref.total);
        EXPECT_EQ(h.underflow(), ref.underflow);
        EXPECT_EQ(h.overflow(), ref.overflow);
        EXPECT_EQ(h.nonfinite(), 3u);
        EXPECT_EQ(h.buckets(), ref.bins);
        for (const double q : quantilesChecked) {
            EXPECT_TRUE(sameBits(h.quantile(q), ref.quantile(q)))
                << q << ": " << h.quantile(q) << " vs " << ref.quantile(q);
        }
        // Only the chunks a sample reached hold buckets.
        std::size_t reached = 0;
        for (std::size_t c = 0; c * Histogram::chunkBuckets < sh.buckets;
             ++c) {
            const auto first = ref.bins.begin()
                + static_cast<std::ptrdiff_t>(c * Histogram::chunkBuckets);
            const auto last = ref.bins.begin() + static_cast<std::ptrdiff_t>(
                std::min(sh.buckets, (c + 1) * Histogram::chunkBuckets));
            reached += std::any_of(first, last,
                                   [](std::uint64_t n) { return n > 0; });
        }
        EXPECT_EQ(h.chunksHeld(), reached);
        h.reset();
        EXPECT_EQ(h.chunksHeld(), 0u);
    }
}

TEST(HistogramChunks, ShardsMergedInFixedOrderEqualOneHistogram)
{
    Histogram whole(0.0, 4000.0, 80000);
    std::vector<Histogram> shards(3, Histogram(0.0, 4000.0, 80000));
    std::size_t k = 0;
    for (const double x : edgeSamples(0.0, 4000.0, 80000, 7)) {
        whole.sample(x);
        shards[k++ % shards.size()].sample(x);
    }
    Histogram merged(0.0, 4000.0, 80000);
    for (const Histogram &s : shards)
        merged.merge(s);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.underflow(), whole.underflow());
    EXPECT_EQ(merged.overflow(), whole.overflow());
    EXPECT_EQ(merged.nonfinite(), whole.nonfinite());
    EXPECT_EQ(merged.buckets(), whole.buckets());
    EXPECT_EQ(merged.chunksHeld(), whole.chunksHeld());
    for (const double q : quantilesChecked)
        EXPECT_TRUE(sameBits(merged.quantile(q), whole.quantile(q))) << q;
    // The same shards folded in the same order give the same bits.
    Histogram again(0.0, 4000.0, 80000);
    for (const Histogram &s : shards)
        again.merge(s);
    EXPECT_TRUE(sameBits(again.mean(), merged.mean()));
}

TEST(StatGroup, DumpsNamesAndValues)
{
    Counter c;
    c += 3;
    Accumulator a;
    a.sample(10.0);
    a.sample(20.0);

    StatRegistry g;
    g.addCounter("packets", c);
    g.addMean("latency", a);

    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "packets 3\nlatency 15\n");
}

TEST(StatGroup, ValuesArePulledAtDumpTime)
{
    Counter c;
    StatRegistry g;
    g.addCounter("n", c);
    c += 7;
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "n 7\n");
}

} // namespace
