/**
 * @file
 * Unit tests for the page-keyed LRU counter cache shared by the
 * DRAM-side encryption engine and the crypto protection backend.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/counter_cache.hh"

namespace snpu
{
namespace
{

constexpr Addr entries = CounterCache::entries;

TEST(CounterCache, HitAfterMiss)
{
    CounterCache cache;
    EXPECT_FALSE(cache.lookup(7));
    EXPECT_TRUE(cache.lookup(7));
    EXPECT_FALSE(cache.lookup(8));
    EXPECT_TRUE(cache.lookup(7));
    EXPECT_TRUE(cache.lookup(8));
}

TEST(CounterCache, EvictsLeastRecentlyUsed)
{
    CounterCache cache;
    // Pages 1..entries fill the cache exactly: every one stays.
    for (Addr page = 1; page <= entries; ++page)
        EXPECT_FALSE(cache.lookup(page));
    for (Addr page = 1; page <= entries; ++page)
        EXPECT_TRUE(cache.lookup(page));
    // Touch 1, so 2 is now the least recently used entry.
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_FALSE(cache.lookup(entries + 1)); // evicts 2
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_TRUE(cache.lookup(entries + 1));
    EXPECT_FALSE(cache.lookup(2)); // evicts 3, the LRU
    EXPECT_TRUE(cache.lookup(4));
    EXPECT_FALSE(cache.lookup(3)); // evicts 5, not the just-used 4
    EXPECT_TRUE(cache.lookup(4));
    EXPECT_FALSE(cache.lookup(5)); // evicts 6
    for (Addr page = 7; page <= entries; ++page)
        EXPECT_TRUE(cache.lookup(page));
    for (Addr page : {Addr(1), entries + 1, Addr(2), Addr(3), Addr(4),
                      Addr(5)})
        EXPECT_TRUE(cache.lookup(page));
    EXPECT_FALSE(cache.lookup(6));
}

TEST(CounterCache, InvalidateAllForgetsEveryPage)
{
    CounterCache cache;
    for (Addr page = 10; page < 10 + entries; ++page)
        EXPECT_FALSE(cache.lookup(page));
    cache.invalidateAll();
    for (Addr page = 10; page < 10 + entries; ++page)
        EXPECT_FALSE(cache.lookup(page));
    // Refilled after the flush: every page hits again.
    for (Addr page = 10; page < 10 + entries; ++page)
        EXPECT_TRUE(cache.lookup(page));
}

TEST(CounterCache, InvalidatingAnEmptyCacheChangesNothing)
{
    // Redundant invalidations (on a fresh cache and right after a
    // real one) leave a cache that answers a lookup stream exactly
    // like a fresh one, LRU victim choice included: the stream
    // cycles over 97 pages, more than the cache holds, so it both
    // hits and evicts.
    std::vector<Addr> stream;
    for (Addr i = 0; i < 400; ++i)
        stream.push_back(i * 7 % 97 < 80 ? i * 7 % 97 : i % 5);
    CounterCache cache;
    cache.invalidateAll();
    CounterCache fresh;
    std::uint32_t hits = 0;
    for (Addr page : stream) {
        const bool hit = cache.lookup(page);
        EXPECT_EQ(hit, fresh.lookup(page));
        hits += hit ? 1 : 0;
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, stream.size());
    cache.invalidateAll();
    cache.invalidateAll();
    CounterCache fresh_again;
    for (Addr page : stream)
        EXPECT_EQ(cache.lookup(page), fresh_again.lookup(page));
}

} // namespace
} // namespace snpu
