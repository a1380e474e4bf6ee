/**
 * @file
 * Tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/cache.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace
{

using namespace macrosim;

constexpr std::uint32_t kLine = 64;

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(SetAssocCache(1000, 8, 64), FatalError);
    EXPECT_THROW(SetAssocCache(1024, 0, 64), FatalError);
    EXPECT_THROW(SetAssocCache(1024, 8, 0), FatalError);
}

TEST(Cache, GeometryDerivation)
{
    SetAssocCache c(256 * 1024, 8, kLine);
    EXPECT_EQ(c.sets(), 512u);
    EXPECT_EQ(c.ways(), 8u);
    EXPECT_EQ(c.lineBytes(), kLine);
}

TEST(Cache, MissThenHit)
{
    SetAssocCache c(8 * 1024, 4, kLine);
    EXPECT_FALSE(c.probe(0x1000).has_value());
    EXPECT_FALSE(c.touch(0x1000));
    c.install(0x1000, CacheState::Shared);
    EXPECT_TRUE(c.touch(0x1000));
    EXPECT_EQ(c.probe(0x1000), CacheState::Shared);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    SetAssocCache c(8 * 1024, 4, kLine);
    c.install(0x1000, CacheState::Exclusive);
    EXPECT_TRUE(c.touch(0x1004));
    EXPECT_TRUE(c.touch(0x103F));
    EXPECT_FALSE(c.touch(0x1040)); // next line
}

TEST(Cache, LruEviction)
{
    // 2-way, 2-set cache: lines 0x000, 0x100, 0x200 map to set 0
    // (line 64B, 2 sets -> set stride 128B).
    SetAssocCache c(256, 2, kLine);
    ASSERT_EQ(c.sets(), 2u);
    c.install(0x000, CacheState::Shared);
    c.install(0x100, CacheState::Shared);
    c.touch(0x000); // make 0x100 the LRU
    auto res = c.install(0x200, CacheState::Shared);
    ASSERT_TRUE(res.evicted.has_value());
    EXPECT_EQ(*res.evicted, 0x100u);
    EXPECT_FALSE(res.writeback.has_value()); // clean eviction
    EXPECT_TRUE(c.probe(0x000).has_value());
    EXPECT_FALSE(c.probe(0x100).has_value());
}

TEST(Cache, DirtyEvictionRequestsWriteback)
{
    SetAssocCache c(256, 2, kLine);
    c.install(0x000, CacheState::Modified);
    c.install(0x100, CacheState::Owned);
    auto res = c.install(0x200, CacheState::Shared);
    ASSERT_TRUE(res.writeback.has_value());
    EXPECT_EQ(*res.writeback, 0x000u); // LRU was the Modified line
}

TEST(Cache, InstallOverResidentLineUpdatesState)
{
    SetAssocCache c(8 * 1024, 4, kLine);
    c.install(0x1000, CacheState::Shared);
    auto res = c.install(0x1000, CacheState::Modified);
    EXPECT_TRUE(res.hit);
    EXPECT_FALSE(res.evicted.has_value());
    EXPECT_EQ(c.probe(0x1000), CacheState::Modified);
}

TEST(Cache, SetStateAndInvalidate)
{
    SetAssocCache c(8 * 1024, 4, kLine);
    EXPECT_FALSE(c.setState(0x1000, CacheState::Shared));
    c.install(0x1000, CacheState::Exclusive);
    EXPECT_TRUE(c.setState(0x1000, CacheState::Owned));
    auto prev = c.invalidate(0x1000);
    EXPECT_EQ(prev, CacheState::Owned);
    EXPECT_FALSE(c.probe(0x1000).has_value());
    EXPECT_FALSE(c.invalidate(0x1000).has_value());
}

TEST(Cache, InvalidLinesPreferredOverEviction)
{
    SetAssocCache c(256, 2, kLine);
    c.install(0x000, CacheState::Modified);
    auto res = c.install(0x200, CacheState::Shared);
    // Second way was free; nothing evicted.
    EXPECT_FALSE(res.evicted.has_value());
    EXPECT_TRUE(c.probe(0x000).has_value());
    EXPECT_TRUE(c.probe(0x200).has_value());
}

TEST(Cache, DistinctSetsDoNotInterfere)
{
    SetAssocCache c(256, 2, kLine);
    c.install(0x000, CacheState::Shared); // set 0
    c.install(0x040, CacheState::Shared); // set 1
    c.install(0x0C0, CacheState::Shared); // set 1
    c.install(0x140, CacheState::Shared); // set 1: evicts from set 1
    EXPECT_TRUE(c.probe(0x000).has_value());
}

/**
 * The dense model the row-on-first-install cache replaced: every set's
 * ways in one array from the start. Same victim rule (first Invalid
 * way, else least recently used).
 */
class DenseCache
{
  public:
    DenseCache(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), lines_(std::size_t{sets} * ways)
    {}

    std::optional<CacheState>
    probe(Addr addr) const
    {
        const Line *l = find(addr);
        return l ? std::optional<CacheState>(l->state) : std::nullopt;
    }

    bool
    touch(Addr addr)
    {
        Line *l = find(addr);
        if (l != nullptr)
            l->lastUse = ++clock_;
        ++(l != nullptr ? hits : misses);
        return l != nullptr;
    }

    SetAssocCache::AccessResult
    install(Addr addr, CacheState state)
    {
        SetAssocCache::AccessResult res;
        res.state = state;
        if (Line *l = find(addr)) {
            l->state = state;
            l->lastUse = ++clock_;
            res.hit = true;
            return res;
        }
        const std::uint32_t set = setOf(addr);
        Line *base = &lines_[std::size_t{set} * ways_];
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
            const Addr old = (victim->tag * sets_ + set) * kLine;
            res.evicted = old;
            if (isDirty(victim->state))
                res.writeback = old;
        }
        victim->tag = addr / kLine / sets_;
        victim->state = state;
        victim->lastUse = ++clock_;
        return res;
    }

    bool
    setState(Addr addr, CacheState state)
    {
        Line *l = find(addr);
        if (l != nullptr)
            l->state = state;
        return l != nullptr;
    }

    std::optional<CacheState>
    invalidate(Addr addr)
    {
        Line *l = find(addr);
        if (l == nullptr)
            return std::nullopt;
        const CacheState s = l->state;
        l->state = CacheState::Invalid;
        return s;
    }

    std::uint32_t
    setOf(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr / kLine) % sets_);
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        CacheState state = CacheState::Invalid;
        std::uint64_t lastUse = 0;
    };

    Line *
    find(Addr addr)
    {
        const Addr tag = addr / kLine / sets_;
        Line *base = &lines_[std::size_t{setOf(addr)} * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (base[w].state != CacheState::Invalid && base[w].tag == tag)
                return &base[w];
        }
        return nullptr;
    }

    const Line *
    find(Addr addr) const
    {
        return const_cast<DenseCache *>(this)->find(addr);
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint64_t clock_ = 0;
    std::vector<Line> lines_;
};

TEST(Cache, FreshCacheHoldsNoRows)
{
    SetAssocCache c(256 * 1024, 8, kLine);
    EXPECT_EQ(c.setsHeld(), 0u);
    EXPECT_FALSE(c.probe(0x1000).has_value());
    EXPECT_FALSE(c.touch(0x1000));
    EXPECT_FALSE(c.setState(0x1000, CacheState::Shared));
    EXPECT_FALSE(c.invalidate(0x1000).has_value());
    EXPECT_EQ(c.setsHeld(), 0u); // only install() carves a row
    c.install(0x1000, CacheState::Shared);
    c.install(0x1000 + 512 * kLine, CacheState::Shared); // same set
    EXPECT_EQ(c.setsHeld(), 1u);
}

TEST(Cache, MatchesDenseModelOnRandomStreams)
{
    // {sets, ways}: one set, one way, and shapes whose sets span
    // several row chunks, with and without a partial last chunk.
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {1, 1}, {1, 4}, {7, 1}, {2, 2}, {33, 3}, {512, 8}, {100, 2}};
    const CacheState states[] = {CacheState::Modified, CacheState::Owned,
                                 CacheState::Exclusive, CacheState::Shared};
    for (const auto &[sets, ways] : shapes) {
        SCOPED_TRACE(testing::Message() << sets << " sets x " << ways
                                        << " ways");
        SetAssocCache c(sets * ways * kLine, ways, kLine);
        DenseCache ref(sets, ways);
        Rng rng(sets * 131 + ways);
        // About four lines per way of the whole cache, so sets both
        // fill and evict; offsets inside a line must not matter.
        const std::uint64_t lines = std::uint64_t{sets} * ways * 4 + 3;
        std::vector<bool> installed(sets, false);
        for (int op = 0; op < 20000; ++op) {
            const Addr addr = rng.below(lines) * kLine + rng.below(kLine);
            const CacheState st = states[rng.below(4)];
            switch (rng.below(5)) {
            case 0:
            case 1: {
                const auto got = c.install(addr, st);
                const auto want = ref.install(addr, st);
                installed[ref.setOf(addr)] = true;
                ASSERT_EQ(got.hit, want.hit) << op;
                ASSERT_EQ(got.state, want.state) << op;
                ASSERT_EQ(got.evicted, want.evicted) << op;
                ASSERT_EQ(got.writeback, want.writeback) << op;
                break;
            }
            case 2:
                ASSERT_EQ(c.touch(addr), ref.touch(addr)) << op;
                break;
            case 3:
                ASSERT_EQ(c.setState(addr, st), ref.setState(addr, st))
                    << op;
                break;
            default:
                ASSERT_EQ(c.invalidate(addr), ref.invalidate(addr)) << op;
                break;
            }
            ASSERT_EQ(c.probe(addr), ref.probe(addr)) << op;
        }
        std::uint64_t resident = 0;
        for (std::uint64_t l = 0; l < lines; ++l) {
            ASSERT_EQ(c.probe(l * kLine), ref.probe(l * kLine)) << l;
            resident += ref.probe(l * kLine).has_value();
        }
        EXPECT_GT(resident, 0u);
        EXPECT_GT(c.hits(), 0u);
        EXPECT_GT(c.misses(), 0u);
        EXPECT_EQ(c.hits(), ref.hits);
        EXPECT_EQ(c.misses(), ref.misses);
        EXPECT_EQ(c.setsHeld(),
                  static_cast<std::uint32_t>(std::count(
                      installed.begin(), installed.end(), true)));
    }
}

TEST(CacheStateHelpers, Predicates)
{
    EXPECT_TRUE(isDirty(CacheState::Modified));
    EXPECT_TRUE(isDirty(CacheState::Owned));
    EXPECT_FALSE(isDirty(CacheState::Shared));
    EXPECT_TRUE(canWrite(CacheState::Exclusive));
    EXPECT_FALSE(canWrite(CacheState::Owned));
    EXPECT_TRUE(canRead(CacheState::Shared));
    EXPECT_FALSE(canRead(CacheState::Invalid));
}

} // namespace
