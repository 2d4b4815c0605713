/**
 * @file
 * Unit tests for the page-keyed LRU counter cache shared by the
 * DRAM-side encryption engine and the crypto protection backend.
 */

#include <gtest/gtest.h>

#include "mem/counter_cache.hh"
#include "sim/logging.hh"

namespace snpu
{
namespace
{

TEST(CounterCache, HitAfterMiss)
{
    CounterCache cache(4);
    EXPECT_FALSE(cache.lookup(7));
    EXPECT_TRUE(cache.lookup(7));
    EXPECT_FALSE(cache.lookup(8));
    EXPECT_TRUE(cache.lookup(7));
    EXPECT_TRUE(cache.lookup(8));
}

TEST(CounterCache, EvictsLeastRecentlyUsed)
{
    CounterCache cache(2);
    EXPECT_FALSE(cache.lookup(1));
    EXPECT_FALSE(cache.lookup(2));
    // Touch 1, so 2 is now the least recently used entry.
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_FALSE(cache.lookup(3)); // evicts 2
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_TRUE(cache.lookup(3));
    EXPECT_FALSE(cache.lookup(2)); // evicts 1, the LRU of {1, 3}
    EXPECT_TRUE(cache.lookup(3));
    EXPECT_FALSE(cache.lookup(1));
}

TEST(CounterCache, InvalidateAllForgetsEveryPage)
{
    CounterCache cache(3);
    for (Addr page : {10, 11, 12})
        EXPECT_FALSE(cache.lookup(page));
    cache.invalidateAll();
    for (Addr page : {10, 11, 12})
        EXPECT_FALSE(cache.lookup(page));
    // Refilled after the flush: every page hits again.
    for (Addr page : {10, 11, 12})
        EXPECT_TRUE(cache.lookup(page));
}

TEST(CounterCache, ZeroEntriesIsFatal)
{
    EXPECT_THROW(CounterCache(0), FatalError);
}

} // namespace
} // namespace snpu
