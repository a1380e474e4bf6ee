/**
 * @file
 * Distributed full-map coherence directory.
 *
 * Each cache line has a home site determined by address interleaving.
 * The home's directory slice tracks the line's global state, its owner
 * site (for M/O/E lines) and a sharer bit-vector over the 64 sites.
 * The coherence engine consults and updates this state to decide which
 * network messages a transaction needs.
 */

#ifndef MACROSIM_ARCH_DIRECTORY_HH
#define MACROSIM_ARCH_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/cache.hh"
#include "arch/geometry.hh"
#include "arch/protocol.hh"
#include "sim/flat_map.hh"

namespace macrosim
{

/**
 * Compact set of sites (sharers) for an arbitrary R x C grid. The
 * first 64 sites live in one inline word — the whole paper-scale
 * (8x8) macrochip fits there, so directory entries on the Table 4
 * configuration stay allocation-free (the PR 5 hot-path contract).
 * Larger grids (16x16, 24x24 scaling studies) keep sites >= 64 in
 * an overflow word vector that grows on first touch and keeps its
 * capacity across clear(), so pooled coherence records still reuse
 * their storage in steady state.
 */
class SiteSet
{
  public:
    void
    add(SiteId s)
    {
        if (s < bitsPerWord) {
            low_ |= (std::uint64_t{1} << s);
            return;
        }
        const std::size_t w = s / bitsPerWord - 1;
        if (w >= ext_.size())
            ext_.resize(w + 1, 0);
        ext_[w] |= (std::uint64_t{1} << (s % bitsPerWord));
    }

    void
    remove(SiteId s)
    {
        if (s < bitsPerWord) {
            low_ &= ~(std::uint64_t{1} << s);
            return;
        }
        const std::size_t w = s / bitsPerWord - 1;
        if (w < ext_.size())
            ext_[w] &= ~(std::uint64_t{1} << (s % bitsPerWord));
    }

    bool
    contains(SiteId s) const
    {
        if (s < bitsPerWord)
            return (low_ >> s) & 1;
        const std::size_t w = s / bitsPerWord - 1;
        return w < ext_.size()
            && ((ext_[w] >> (s % bitsPerWord)) & 1);
    }

    /** Empty the set; overflow capacity is kept for reuse. */
    void
    clear()
    {
        low_ = 0;
        for (std::uint64_t &w : ext_)
            w = 0;
    }

    bool
    empty() const
    {
        if (low_ != 0)
            return false;
        for (const std::uint64_t w : ext_)
            if (w != 0)
                return false;
        return true;
    }

    std::uint32_t
    count() const
    {
        std::uint32_t n = static_cast<std::uint32_t>(
            __builtin_popcountll(low_));
        for (const std::uint64_t w : ext_)
            n += static_cast<std::uint32_t>(__builtin_popcountll(w));
        return n;
    }

    /** The low 64 sites as a bitmask (paper-scale fast path). */
    std::uint64_t raw() const { return low_; }

    /** Enumerate members in ascending site order. */
    std::vector<SiteId> members() const;

    /** Value equality; an all-zero overflow equals no overflow. */
    bool
    operator==(const SiteSet &o) const
    {
        if (low_ != o.low_)
            return false;
        const std::size_t n = std::max(ext_.size(), o.ext_.size());
        for (std::size_t w = 0; w < n; ++w) {
            const std::uint64_t a = w < ext_.size() ? ext_[w] : 0;
            const std::uint64_t b = w < o.ext_.size() ? o.ext_[w] : 0;
            if (a != b)
                return false;
        }
        return true;
    }

  private:
    static constexpr std::uint32_t bitsPerWord = 64;

    std::uint64_t low_ = 0;
    /** Words for sites [64, 128), [128, 192), ... — empty on the
     *  paper-scale grid. */
    std::vector<std::uint64_t> ext_;
};

/** Directory-side state of one line. */
enum class DirState : std::uint8_t
{
    Uncached,  ///< No on-macrochip copy; memory is the owner.
    Shared,    ///< One or more read-only copies; memory up to date.
    Owned,     ///< A dirty owner plus possible sharers.
    Exclusive, ///< Exactly one site holds the line (E or M).
};

/** One line's directory entry. */
struct DirEntry
{
    DirState state = DirState::Uncached;
    SiteId owner = 0;     ///< Valid when state is Owned/Exclusive.
    SiteSet sharers;      ///< Sites with read copies (excludes owner).
};

/**
 * A single site's directory slice; the full directory is one slice
 * per site, indexed by homeSite().
 */
class Directory
{
  public:
    explicit Directory(std::uint32_t site_count)
        : siteCount_(site_count)
    {}

    /** Home site of an address: line-interleaved across sites. */
    SiteId
    homeSite(Addr addr, std::uint32_t line_bytes) const
    {
        return static_cast<SiteId>((addr / line_bytes) % siteCount_);
    }

    /** Look up (or create Uncached) entry for a line address. */
    DirEntry &entry(Addr line_addr) { return entries_[line_addr]; }

    /**
     * Drop the entry for @p line_addr if it has decayed back to
     * Uncached with no sharers — the state an untracked line decodes
     * to anyway, so reclaiming is invisible to the protocol. Without
     * this, a writeback leaves a dead Uncached entry behind forever
     * and the slice grows with every line ever touched.
     */
    void
    reclaim(Addr line_addr)
    {
        auto it = entries_.find(line_addr);
        if (it != entries_.end()
            && it->second.state == DirState::Uncached
            && it->second.sharers.empty()) {
            entries_.erase(it);
        }
    }

    /** Read-only probe; returns Uncached default if absent. */
    DirEntry
    probe(Addr line_addr) const
    {
        if (auto it = entries_.find(line_addr); it != entries_.end())
            return it->second;
        return DirEntry{};
    }

    std::size_t trackedLines() const { return entries_.size(); }

    /** Visit every tracked (line, entry) pair; order unspecified. */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        for (const auto &[line, entry] : entries_)
            fn(line, entry);
    }

  private:
    std::uint32_t siteCount_;
    FlatMap<Addr, DirEntry> entries_;
};

} // namespace macrosim

#endif // MACROSIM_ARCH_DIRECTORY_HH
