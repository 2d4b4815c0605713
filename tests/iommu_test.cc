/**
 * @file
 * Unit tests for the IOMMU baseline: page table walks, IOTLB
 * behaviour, and the TrustZone S/NS extension.
 */

#include <gtest/gtest.h>

#include "iommu/iommu.hh"
#include "iommu/iotlb.hh"
#include "iommu/page_table.hh"
#include "mem/mem_system.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

struct IommuFixture : ::testing::Test
{
    IommuFixture()
        : stats("g"), mem(stats),
          table(mem, AddrRange{mem.map().dram().base, 8u << 20})
    {
        data_base = mem.map().dram().base + (64u << 20);
    }

    Iommu
    makeIommu(std::uint32_t entries)
    {
        return makeIommu(stats, entries);
    }

    Iommu
    makeIommu(stats::Group &group, std::uint32_t entries)
    {
        IommuParams p;
        p.iotlb_entries = entries;
        return Iommu(group, table, p);
    }

    /** Memory-system accesses counted so far. */
    std::uint64_t
    memAccesses() const
    {
        const auto *s = dynamic_cast<const stats::Scalar *>(
            stats.find("mem_accesses"));
        EXPECT_NE(s, nullptr);
        return s ? static_cast<std::uint64_t>(s->value()) : 0;
    }

    /** L2 lookups (hits plus misses) counted so far. */
    std::uint64_t
    l2Lookups()
    {
        return mem.l2().hits() + mem.l2().misses();
    }

    stats::Group stats;
    MemSystem mem;
    PageTable table;
    Addr data_base = 0;
};

TEST_F(IommuFixture, MapLookupRoundTrip)
{
    ASSERT_TRUE(table.map(0x10000, data_base, true, false));
    Pte pte = table.lookup(0x10234);
    EXPECT_TRUE(pte.valid);
    EXPECT_EQ(pte.paddr, data_base + 0x234);
    EXPECT_TRUE(pte.writable);
    EXPECT_FALSE(pte.secure);
}

TEST_F(IommuFixture, UnmappedLookupInvalid)
{
    EXPECT_FALSE(table.lookup(0xdead0000).valid);
}

TEST_F(IommuFixture, RemapConflictRejected)
{
    ASSERT_TRUE(table.map(0x20000, data_base, true, false));
    EXPECT_FALSE(table.map(0x20000, data_base + 0x1000, true, false));
}

TEST_F(IommuFixture, UnmapRemovesTranslation)
{
    ASSERT_TRUE(table.map(0x30000, data_base, true, false));
    EXPECT_TRUE(table.unmap(0x30000));
    EXPECT_FALSE(table.lookup(0x30000).valid);
    EXPECT_FALSE(table.unmap(0x30000));
}

TEST_F(IommuFixture, MapRangeCoversEveryPage)
{
    ASSERT_TRUE(table.mapRange(0x100000, data_base, 5 * page_bytes,
                               true, false));
    for (Addr off = 0; off < 5 * page_bytes; off += page_bytes) {
        EXPECT_TRUE(table.lookup(0x100000 + off).valid);
        EXPECT_EQ(table.lookup(0x100000 + off).paddr,
                  data_base + off);
    }
}

/** Overlapping windows onto the same frames compose: the second
 *  window steps over the shared pages and maps the rest. A page
 *  mapped to another frame fails the range and the IOMMU context. */
TEST(PageTable, MapRangeOverOverlappingWindow)
{
    stats::Group stats("g");
    MemSystem mem(stats);
    PageTable table(mem, AddrRange{mem.map().dram().base, 8u << 20});
    const Addr pa = mem.map().dram().base + (64u << 20);
    const Addr va = 0x100000;

    ASSERT_TRUE(table.mapRange(va, pa, 3 * page_bytes, true, false));
    ASSERT_TRUE(table.mapRange(va + 2 * page_bytes, pa + 2 * page_bytes,
                               4 * page_bytes, true, false));
    for (Addr off = 0; off < 6 * page_bytes; off += page_bytes) {
        EXPECT_TRUE(table.lookup(va + off).valid) << off;
        EXPECT_EQ(table.lookup(va + off).paddr, pa + off);
    }

    EXPECT_FALSE(table.mapRange(va + 5 * page_bytes, pa, 2 * page_bytes,
                                true, false));
    EXPECT_EQ(table.lookup(va + 5 * page_bytes).paddr,
              pa + 5 * page_bytes);

    Iommu iommu(stats, table);
    EXPECT_TRUE(iommu.beginContext(
        ProtectionContext{va, pa, 6 * page_bytes, World::normal}, true));
    const Status conflict = iommu.beginContext(
        ProtectionContext{va, pa + page_bytes, page_bytes, World::normal},
        true);
    EXPECT_EQ(conflict.code(), StatusCode::provision_failed);
}

TEST_F(IommuFixture, TimedWalkCostsMemoryAccesses)
{
    ASSERT_TRUE(table.map(0x40000, data_base, true, false));
    Pte pte;
    const Tick done = table.walk(1000, 0x40000, false, pte);
    EXPECT_TRUE(pte.valid);
    EXPECT_EQ(pte.paddr, data_base);
    // Three dependent reads: strictly positive, at least 3 L2 hits.
    EXPECT_GE(done - 1000, 3 * 20u);
    EXPECT_EQ(memAccesses(), 3u);
    EXPECT_EQ(l2Lookups(), 3u);

    // Warm: the walk cache serves the two upper levels, and the leaf
    // read hits the line the cold walk brought in.
    Pte warm;
    const Tick warm_done = table.walk(done, 0x40000, true, warm);
    EXPECT_TRUE(warm.valid);
    EXPECT_EQ(warm.paddr, data_base);
    EXPECT_EQ(warm_done, done + L2Cache::hit_latency);
    EXPECT_EQ(memAccesses(), 4u);
    EXPECT_EQ(l2Lookups(), 4u);

    // Unmapped (its second-level entry is invalid): a warm walk
    // faults a cycle later with no memory access; a cold one reads
    // the two levels down to the invalid entry.
    Pte none;
    EXPECT_EQ(table.walk(5000, 0xbad000, true, none), 5001u);
    EXPECT_FALSE(none.valid);
    EXPECT_EQ(memAccesses(), 4u);
    EXPECT_EQ(l2Lookups(), 4u);
    table.walk(6000, 0xbad000, false, none);
    EXPECT_FALSE(none.valid);
    EXPECT_EQ(memAccesses(), 6u);
    EXPECT_EQ(l2Lookups(), 6u);
}

TEST_F(IommuFixture, TranslateHitIsFast)
{
    ASSERT_TRUE(table.map(0x50000, data_base, true, false));
    Iommu iommu = makeIommu(8);
    // First access walks...
    Translation t1 = iommu.translate(0, 0x50040, 64, MemOp::read,
                                     World::normal);
    EXPECT_TRUE(t1.ok);
    EXPECT_EQ(t1.paddr, data_base + 0x40);
    EXPECT_EQ(iommu.walks(), 1u);
    // ...the second hits in one cycle.
    Translation t2 = iommu.translate(t1.ready, 0x50080, 64,
                                     MemOp::read, World::normal);
    EXPECT_TRUE(t2.ok);
    EXPECT_EQ(t2.ready - t1.ready, 1u);
    EXPECT_EQ(iommu.walks(), 1u);
}

TEST_F(IommuFixture, UnmappedTranslationDenied)
{
    Iommu iommu = makeIommu(8);
    Translation t = iommu.translate(0, 0xbad000, 64, MemOp::read,
                                    World::normal);
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(iommu.denyCount(), 1u);
}

TEST_F(IommuFixture, WriteToReadOnlyPageDenied)
{
    ASSERT_TRUE(table.map(0x60000, data_base, false, false));
    Iommu iommu = makeIommu(8);
    EXPECT_TRUE(iommu.translate(0, 0x60000, 64, MemOp::read,
                                World::normal)
                    .ok);
    EXPECT_FALSE(iommu.translate(0, 0x60000, 64, MemOp::write,
                                 World::normal)
                     .ok);
}

TEST_F(IommuFixture, SecurePageDeniedToNormalWorld)
{
    ASSERT_TRUE(table.map(0x70000, data_base, true, true));
    Iommu iommu = makeIommu(8);
    EXPECT_FALSE(iommu.translate(0, 0x70000, 64, MemOp::read,
                                 World::normal)
                     .ok);
    EXPECT_TRUE(iommu.translate(0, 0x70000, 64, MemOp::read,
                                World::secure)
                    .ok);
}

TEST_F(IommuFixture, FlushTlbForcesRewalk)
{
    ASSERT_TRUE(table.map(0x80000, data_base, true, false));
    Iommu iommu = makeIommu(8);
    iommu.translate(0, 0x80000, 64, MemOp::read, World::normal);
    iommu.flushTlb();
    iommu.translate(1000, 0x80000, 64, MemOp::read, World::normal);
    EXPECT_EQ(iommu.walks(), 2u);
}

TEST_F(IommuFixture, SmallTlbThrashesAcrossStreams)
{
    // Map 8 pages; access them round-robin with a 4-entry TLB: every
    // access after warm-up still misses (LRU worst case).
    for (int p = 0; p < 8; ++p) {
        ASSERT_TRUE(table.map(0x100000 + p * page_bytes,
                              data_base + p * page_bytes, true,
                              false));
    }
    Iommu small = makeIommu(4);
    Tick t = 0;
    for (int round = 0; round < 4; ++round) {
        for (int p = 0; p < 8; ++p) {
            Translation tr = small.translate(
                t, 0x100000 + p * page_bytes, 64, MemOp::read,
                World::normal);
            t = tr.ready;
        }
    }
    EXPECT_EQ(small.walks(), 32u); // every single access walked

    stats::Group big_stats("g_big");
    Iommu big = makeIommu(big_stats, 16);
    t = 0;
    for (int round = 0; round < 4; ++round) {
        for (int p = 0; p < 8; ++p) {
            Translation tr = big.translate(
                t, 0x100000 + p * page_bytes, 64, MemOp::read,
                World::normal);
            t = tr.ready;
        }
    }
    EXPECT_EQ(big.walks(), 8u); // one compulsory miss per page
}

TEST(Iotlb, LruReplacement)
{
    Iotlb tlb(2);
    tlb.insert(1, 101, true, false);
    tlb.insert(2, 102, true, false);
    EXPECT_NE(tlb.lookup(1), nullptr); // 2 becomes LRU
    tlb.insert(3, 103, true, false);   // evicts 2
    EXPECT_NE(tlb.lookup(1), nullptr);
    EXPECT_EQ(tlb.lookup(2), nullptr);
    EXPECT_NE(tlb.lookup(3), nullptr);
    EXPECT_EQ(tlb.evictions(), 1u);
}

TEST(Iotlb, InsertRefreshesExistingEntry)
{
    Iotlb tlb(2);
    tlb.insert(1, 101, true, false);
    tlb.insert(1, 201, false, true);
    const IotlbEntry *e = tlb.lookup(1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppn, 201u);
    EXPECT_TRUE(e->secure);
    EXPECT_EQ(tlb.evictions(), 0u);
}

TEST(Iotlb, FlushPage)
{
    Iotlb tlb(4);
    tlb.insert(1, 101, true, false);
    tlb.insert(2, 102, true, false);
    tlb.flushPage(1);
    EXPECT_EQ(tlb.lookup(1), nullptr);
    EXPECT_NE(tlb.lookup(2), nullptr);
}

TEST(Iotlb, ZeroEntriesIsFatal)
{
    EXPECT_THROW(Iotlb(0), FatalError);
}

TEST(Pte, EncodeDecodeRoundTrip)
{
    Pte pte;
    pte.valid = true;
    pte.writable = true;
    pte.secure = true;
    pte.paddr = 0x8765'4000;
    const Pte back = Pte::decode(pte.encode());
    EXPECT_TRUE(back.valid);
    EXPECT_TRUE(back.writable);
    EXPECT_TRUE(back.secure);
    EXPECT_EQ(back.paddr, 0x8765'4000u);
}

} // namespace
} // namespace snpu
