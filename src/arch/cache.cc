#include "arch/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace macrosim
{

SetAssocCache::SetAssocCache(std::uint32_t size_bytes,
                             std::uint32_t associativity,
                             std::uint32_t line_bytes)
    : ways_(associativity), lineBytes_(line_bytes)
{
    if (associativity == 0 || line_bytes == 0)
        fatal("SetAssocCache: associativity and line size must be > 0");
    if (size_bytes % (associativity * line_bytes) != 0)
        fatal("SetAssocCache: size ", size_bytes,
              " not divisible by way size");
    sets_ = size_bytes / (associativity * line_bytes);
    if (sets_ == 0)
        fatal("SetAssocCache: zero sets");
    // A set gets its ways on first install(): a cache that starts
    // cold holds only this index until traffic reaches it.
    rowIndex_.assign(sets_, 0);
}

SetAssocCache::Line *
SetAssocCache::allocRow(std::uint32_t set)
{
    if (rowIndex_[set] == 0) {
        const std::uint32_t row = rowsHeld_++;
        if (row % rowsPerChunk == 0) {
            // Every line starts Invalid, so the first install picks
            // way 0, as it would in a dense array.
            const std::uint32_t rows = std::min(rowsPerChunk, sets_ - row);
            chunks_.push_back(std::make_unique<Line[]>(
                static_cast<std::size_t>(rows) * ways_));
        }
        rowIndex_[set] = row + 1;
    }
    return rowOf(set);
}

SetAssocCache::Line *
SetAssocCache::findLine(Addr addr) const
{
    Line *base = rowOf(setIndex(addr));
    if (base == nullptr)
        return nullptr;
    const Addr tag = tagOf(addr);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (base[w].state != CacheState::Invalid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

std::optional<CacheState>
SetAssocCache::probe(Addr addr) const
{
    if (const Line *l = findLine(addr))
        return l->state;
    return std::nullopt;
}

bool
SetAssocCache::touch(Addr addr)
{
    if (Line *l = findLine(addr)) {
        l->lastUse = ++useClock_;
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

SetAssocCache::AccessResult
SetAssocCache::install(Addr addr, CacheState state)
{
    AccessResult res;
    if (Line *l = findLine(addr)) {
        // Re-install of a resident line: just update state and LRU.
        l->state = state;
        l->lastUse = ++useClock_;
        res.hit = true;
        res.state = state;
        return res;
    }

    const std::uint32_t set = setIndex(addr);
    Line *base = allocRow(set);
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (base[w].state == CacheState::Invalid) {
            victim = &base[w];
            break;
        }
        if (victim == nullptr || base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }

    if (victim->state != CacheState::Invalid) {
        const Addr victim_addr = addrOf(set, victim->tag);
        res.evicted = victim_addr;
        if (isDirty(victim->state))
            res.writeback = victim_addr;
    }

    victim->tag = tagOf(addr);
    victim->state = state;
    victim->lastUse = ++useClock_;
    res.state = state;
    return res;
}

bool
SetAssocCache::setState(Addr addr, CacheState state)
{
    if (Line *l = findLine(addr)) {
        l->state = state;
        return true;
    }
    return false;
}

std::optional<CacheState>
SetAssocCache::invalidate(Addr addr)
{
    if (Line *l = findLine(addr)) {
        const CacheState s = l->state;
        l->state = CacheState::Invalid;
        return s;
    }
    return std::nullopt;
}

} // namespace macrosim
