/**
 * @file
 * Unit tests for the combined memory system: the world partition in
 * front of L2 + DRAM.
 */

#include <gtest/gtest.h>

#include "mem/mem_system.hh"
#include "mem_access.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

struct MemSystemFixture : ::testing::Test
{
    MemSystemFixture() : stats("g"), mem(stats) {}

    stats::Group stats;
    MemSystem mem;
};

TEST_F(MemSystemFixture, NormalAccessToNormalMemorySucceeds)
{
    MemRequest req{mem.map().dram().base, 64, MemOp::read,
                   World::normal};
    MemResult res = timedAccess(mem, 0, req);
    EXPECT_TRUE(res.ok);
    EXPECT_GT(res.done, 0u);
    EXPECT_EQ(mem.partitionViolations(), 0u);
}

TEST_F(MemSystemFixture, NormalAccessToSecureMemoryDenied)
{
    MemRequest req{mem.map().secureRegion().base, 64, MemOp::read,
                   World::normal};
    MemResult res = timedAccess(mem, 0, req);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(mem.partitionViolations(), 1u);
}

TEST_F(MemSystemFixture, SecureAccessToSecureMemorySucceeds)
{
    MemRequest req{mem.map().secureRegion().base, 64, MemOp::write,
                   World::secure};
    EXPECT_TRUE(timedAccess(mem, 0, req).ok);
}

TEST_F(MemSystemFixture, StraddlingAccessDenied)
{
    const Addr boundary = mem.map().secureRegion().base;
    MemRequest req{boundary - 32, 64, MemOp::read, World::normal};
    EXPECT_FALSE(timedAccess(mem, 0, req).ok);
}

TEST_F(MemSystemFixture, DeniedAccessHasNoTimingSideEffect)
{
    const Tick free_before = mem.dram().nextFree();
    MemRequest req{mem.map().secureRegion().base, 64, MemOp::read,
                   World::normal};
    timedAccess(mem, 0, req);
    EXPECT_EQ(mem.dram().nextFree(), free_before);
}

TEST_F(MemSystemFixture, CachedPathUsesL2)
{
    MemRequest req{mem.map().dram().base, 64, MemOp::read,
                   World::normal};
    MemResult miss = timedAccess(mem, 0, req);
    MemResult hit = timedAccess(mem, miss.done, req);
    EXPECT_EQ(mem.l2().misses(), 1u);
    EXPECT_EQ(mem.l2().hits(), 1u);
    EXPECT_LT(hit.done - miss.done, miss.done);
}

TEST_F(MemSystemFixture, FunctionalDataIndependentOfTiming)
{
    const Addr addr = mem.map().dram().base + 0x1000;
    mem.data().write32(addr, 0xcafef00d);
    EXPECT_EQ(mem.data().read32(addr), 0xcafef00du);
}

} // namespace
} // namespace snpu
