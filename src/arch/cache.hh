/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * Models the per-site shared L2 of Table 4. Tracks MOESI line states
 * so the coherence engine can decide whether a miss needs the
 * directory and whether an eviction produces a writeback message.
 */

#ifndef MACROSIM_ARCH_CACHE_HH
#define MACROSIM_ARCH_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/protocol.hh"

namespace macrosim
{

/** A physical (line-aligned) address. */
using Addr = std::uint64_t;

class SetAssocCache
{
  public:
    /**
     * @param size_bytes Total capacity.
     * @param associativity Ways per set.
     * @param line_bytes Cache line size.
     */
    SetAssocCache(std::uint32_t size_bytes, std::uint32_t associativity,
                  std::uint32_t line_bytes);

    /** Result of a lookup-with-allocate. */
    struct AccessResult
    {
        bool hit = false;
        /** State of the line if hit (and, for writes, pre-upgrade). */
        CacheState state = CacheState::Invalid;
        /**
         * If an allocation evicted a line whose state obliges a
         * writeback (M or O), its address.
         */
        std::optional<Addr> writeback;
        /** Address of any evicted line (clean or dirty). */
        std::optional<Addr> evicted;
    };

    /** Probe without side effects. */
    std::optional<CacheState> probe(Addr addr) const;

    /** Touch a resident line (LRU update). Returns false on miss. */
    bool touch(Addr addr);

    /** Count a miss the caller found by probe() (no LRU change). */
    void recordMiss() { ++misses_; }

    /**
     * Install a line in the given state, evicting the set's LRU line
     * if needed. @return eviction information.
     */
    AccessResult install(Addr addr, CacheState state);

    /** Change the state of a resident line. Returns false on miss. */
    bool setState(Addr addr, CacheState state);

    /** Remove a line (invalidation). Returns its state if present. */
    std::optional<CacheState> invalidate(Addr addr);

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Line
    {
        Addr tag = 0;
        CacheState state = CacheState::Invalid;
        std::uint64_t lastUse = 0;
    };

    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr / lineBytes_) % sets_);
    }

    Addr
    tagOf(Addr addr) const
    {
        return addr / lineBytes_ / sets_;
    }

    Addr
    addrOf(std::uint32_t set, Addr tag) const
    {
        return (tag * sets_ + set) * lineBytes_;
    }

    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    std::uint32_t ways_;
    std::uint32_t sets_;
    std::uint32_t lineBytes_;
    std::uint64_t useClock_ = 0;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
    std::vector<Line> lines_; // sets_ * ways_, row-major by set
};

} // namespace macrosim

#endif // MACROSIM_ARCH_CACHE_HH
