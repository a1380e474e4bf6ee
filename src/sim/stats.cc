#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace macrosim
{

void
Accumulator::sample(double x)
{
    ++count_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

void
Accumulator::merge(const Accumulator &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const std::uint64_t n = count_ + other.count_;
    const double delta = other.mean_ - mean_;
    mean_ += delta * static_cast<double>(other.count_)
        / static_cast<double>(n);
    m2_ += other.m2_ + delta * delta
        * static_cast<double>(count_)
        * static_cast<double>(other.count_)
        / static_cast<double>(n);
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ = n;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(buckets)),
      buckets_(buckets),
      chunks_((buckets + chunkBuckets - 1) / chunkBuckets)
{
    if (hi <= lo || buckets == 0)
        fatal("Histogram: invalid range [", lo, ", ", hi, ") with ",
              buckets, " buckets");
}

void
Histogram::sample(double x)
{
    ++total_;
    if (!std::isfinite(x)) {
        // A NaN would fall through both range guards below (every
        // comparison is false) and index out of bounds; quarantine
        // non-finite samples so the moments stay meaningful too.
        ++nonfinite_;
        return;
    }
    acc_.sample(x);
    if (x < lo_) {
        ++underflow_;
    } else if (x >= hi_) {
        ++overflow_;
    } else {
        const auto idx = std::min(
            static_cast<std::size_t>((x - lo_) / width_), buckets_ - 1);
        const std::size_t c = idx / chunkBuckets;
        std::vector<std::uint64_t> &chunk = chunks_[c];
        if (chunk.empty()) // the last chunk may be shorter
            chunk.resize(std::min(chunkBuckets,
                                  buckets_ - c * chunkBuckets));
        ++chunk[idx % chunkBuckets];
    }
}

double
Histogram::quantile(double q) const
{
    if (total_ == 0)
        return lo_;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(total_);
    double running = static_cast<double>(underflow_);
    if (running >= target && underflow_ > 0)
        return lo_;
    // An absent chunk's buckets are all zero: they cannot hold the
    // target and adding them would leave running unchanged.
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
        const std::vector<std::uint64_t> &chunk = chunks_[c];
        for (std::size_t j = 0; j < chunk.size(); ++j) {
            const double in_bin = static_cast<double>(chunk[j]);
            if (running + in_bin >= target && in_bin > 0) {
                const double frac = (target - running) / in_bin;
                const std::size_t i = c * chunkBuckets + j;
                return lo_ + (static_cast<double>(i) + frac) * width_;
            }
            running += in_bin;
        }
    }
    // The target lies beyond the last regular bucket: the true value
    // was clipped into overflow and any finite answer would
    // under-report the tail (figure-6 asymptotes flattened at the cap).
    if (overflow_ > 0)
        return std::numeric_limits<double>::infinity();
    return hi_;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.lo_ != lo_ || other.hi_ != hi_
        || other.buckets_ != buckets_) {
        fatal("Histogram::merge: incompatible bucketing ([", lo_, ", ",
              hi_, ") x", buckets_, " vs [", other.lo_, ", ",
              other.hi_, ") x", other.buckets_, ")");
    }
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
        const std::vector<std::uint64_t> &from = other.chunks_[c];
        std::vector<std::uint64_t> &into = chunks_[c];
        if (from.empty())
            continue;
        into.resize(from.size());
        for (std::size_t j = 0; j < into.size(); ++j)
            into[j] += from[j];
    }
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    nonfinite_ += other.nonfinite_;
    total_ += other.total_;
    acc_.merge(other.acc_);
}

std::vector<std::uint64_t>
Histogram::buckets() const
{
    std::vector<std::uint64_t> dense(buckets_, 0);
    for (std::size_t c = 0; c < chunks_.size(); ++c)
        std::copy(chunks_[c].begin(), chunks_[c].end(),
                  dense.begin()
                      + static_cast<std::ptrdiff_t>(c * chunkBuckets));
    return dense;
}

std::size_t
Histogram::chunksHeld() const
{
    return static_cast<std::size_t>(std::count_if(
        chunks_.begin(), chunks_.end(),
        [](const std::vector<std::uint64_t> &c) { return !c.empty(); }));
}

void
Histogram::reset()
{
    for (std::vector<std::uint64_t> &c : chunks_)
        std::vector<std::uint64_t>().swap(c);
    underflow_ = overflow_ = nonfinite_ = total_ = 0;
    acc_.reset();
}

} // namespace macrosim
