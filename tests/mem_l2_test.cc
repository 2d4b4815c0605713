/**
 * @file
 * Unit tests for the banked L2 cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/l2_cache.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

struct L2Fixture : ::testing::Test
{
    L2Fixture()
        : stats("g"), dram(stats), l2(stats, dram, smallParams())
    {
    }

    static L2Params
    smallParams()
    {
        L2Params p;
        p.size_bytes = 16 * 1024; // 16 KiB: 256 lines
        p.ways = 4;
        p.banks = 4;
        return p;
    }

    MemRequest
    read(Addr addr, std::uint32_t bytes = 64)
    {
        return MemRequest{addr, bytes, MemOp::read, World::normal};
    }

    stats::Group stats;
    DramModel dram;
    L2Cache l2;
};

TEST_F(L2Fixture, FirstAccessMissesSecondHits)
{
    MemResult r1 = l2.access(0, read(0x8000'0000));
    EXPECT_EQ(l2.misses(), 1u);
    EXPECT_FALSE(r1.l2_hit);

    MemResult r2 = l2.access(r1.done, read(0x8000'0000));
    EXPECT_EQ(l2.hits(), 1u);
    EXPECT_TRUE(r2.l2_hit);
    EXPECT_LT(r2.done - r1.done, r1.done); // hit is much faster
}

TEST_F(L2Fixture, HitLatencyMatchesParameter)
{
    MemResult miss = l2.access(0, read(0x8000'0000));
    MemResult hit = l2.access(miss.done, read(0x8000'0000));
    EXPECT_EQ(hit.done - miss.done, smallParams().hit_latency);
}

TEST_F(L2Fixture, MultiLineRequestTouchesEachLine)
{
    l2.access(0, read(0x8000'0000, 256)); // 4 lines
    EXPECT_EQ(l2.misses(), 4u);
}

TEST_F(L2Fixture, LruEvictsOldest)
{
    // 4 ways per set; the set repeats every 64 sets * 64 B = 4 KiB.
    const Addr base = 0x8000'0000;
    const Addr stride = 4096;
    // Fill all four ways of set 0.
    Tick t = 0;
    for (int w = 0; w < 4; ++w)
        t = l2.access(t, read(base + w * stride)).done;
    // Touch way 0 so way 1 becomes LRU.
    t = l2.access(t, read(base)).done;
    // Insert a fifth line: evicts way 1.
    t = l2.access(t, read(base + 4 * stride)).done;
    // Way 0 still hits; way 1 misses again.
    const std::uint64_t misses_before = l2.misses();
    t = l2.access(t, read(base)).done;
    EXPECT_EQ(l2.misses(), misses_before);
    l2.access(t, read(base + stride));
    EXPECT_EQ(l2.misses(), misses_before + 1);
}

TEST_F(L2Fixture, DirtyEvictionWritesBack)
{
    const Addr base = 0x8000'0000;
    const Addr stride = 4096;
    Tick t = 0;
    // Dirty one line.
    t = l2.access(t, MemRequest{base, 64, MemOp::write,
                                World::normal})
            .done;
    const std::uint64_t dram_writes_before =
        static_cast<std::uint64_t>(dram.totalBytes());
    // Evict it by filling the set.
    for (int w = 1; w <= 4; ++w)
        t = l2.access(t, read(base + w * stride)).done;
    EXPECT_GT(dram.totalBytes(), dram_writes_before);
}

TEST_F(L2Fixture, InvalidateAllForcesMisses)
{
    Tick t = l2.access(0, read(0x8000'0000)).done;
    l2.invalidateAll();
    l2.access(t, read(0x8000'0000));
    EXPECT_EQ(l2.misses(), 2u);
}

TEST_F(L2Fixture, BankConflictSerializes)
{
    // Two lines in the same bank (stride = banks * line = 256 B).
    Tick t = l2.access(0, read(0x8000'0000)).done;
    t = l2.access(t, read(0x8000'0000 + 256)).done;
    // Both warm: same-tick hits to the same bank serialize by the
    // bank cycle time; a hit in a different bank does not.
    const Tick a = l2.access(10000, read(0x8000'0000)).done;
    const Tick b = l2.access(10000, read(0x8000'0000 + 256)).done;
    EXPECT_EQ(b - a, smallParams().bank_cycle);

    Tick warm = l2.access(20000, read(0x8000'0000 + 64)).done;
    (void)warm;
    const Tick c = l2.access(30000, read(0x8000'0000)).done;
    const Tick d = l2.access(30000, read(0x8000'0000 + 64)).done;
    EXPECT_EQ(c, d);
}

TEST_F(L2Fixture, ZeroByteAccessPanics)
{
    EXPECT_THROW(l2.access(0, read(0x8000'0000, 0)), PanicError);
}

TEST(L2Geometry, BadGeometryIsFatal)
{
    stats::Group stats("g");
    DramModel dram(stats);
    L2Params p;
    p.size_bytes = 100; // not line-divisible into ways
    p.ways = 3;
    EXPECT_THROW(L2Cache(stats, dram, p), FatalError);
    p.size_bytes = 128 * line_bytes;
    p.ways = 128; // wider than the per-set valid mask
    EXPECT_THROW(L2Cache(stats, dram, p), FatalError);
}

/**
 * Reference model: the L2's documented policy written the plainest
 * way (a list of resident lines per set, LRU by last-use stamp, the
 * same DRAM calls in the same order), against which the set-major
 * tag store is checked access by access.
 */
class NaiveL2
{
  public:
    NaiveL2(DramModel &dram, const L2Params &p)
        : dram(dram), p(p),
          sets(p.size_bytes / line_bytes / p.ways),
          bank_free(p.banks, 0)
    {
    }

    MemResult
    access(Tick when, const MemRequest &req)
    {
        const std::uint64_t hits_before = hits;
        Tick done = when;
        for (Addr line = req.paddr / line_bytes;
             line <= (req.paddr + req.bytes - 1) / line_bytes; ++line)
            done = std::max(done, accessLine(when, line, req.op));
        MemResult r;
        r.done = done;
        r.ok = true;
        r.l2_hit = misses == 0 || hits > hits_before;
        return r;
    }

    void
    invalidateAll()
    {
        for (auto &set : sets)
            set.clear();
        std::fill(bank_free.begin(), bank_free.end(), 0);
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        Addr line;
        bool dirty;
        std::uint64_t last_use;
    };

    Tick
    accessLine(Tick when, Addr line, MemOp op)
    {
        std::vector<Line> &set = sets[line % sets.size()];
        Tick &bank = bank_free[line % p.banks];
        const Tick start = std::max(when, bank);
        bank = start + p.bank_cycle;
        for (Line &l : set) {
            if (l.line == line) {
                ++hits;
                l.last_use = ++clock;
                l.dirty |= op == MemOp::write;
                return start + p.hit_latency;
            }
        }
        ++misses;
        const Tick ready = start + p.hit_latency;
        if (set.size() == p.ways) {
            auto lru = std::min_element(
                set.begin(), set.end(), [](const Line &a, const Line &b) {
                    return a.last_use < b.last_use;
                });
            if (lru->dirty) {
                ++writebacks;
                dram.access(ready, line_bytes, MemOp::write);
            }
            set.erase(lru);
        }
        set.push_back(Line{line, op == MemOp::write, ++clock});
        return dram.access(ready, line_bytes, MemOp::read);
    }

    DramModel &dram;
    const L2Params p;
    std::vector<std::vector<Line>> sets;
    std::vector<Tick> bank_free;
    std::uint64_t clock = 0;
};

TEST(L2ReferenceModel, MatchesNaiveLruAcrossGeometries)
{
    std::uint64_t seed = 1;
    for (std::uint32_t ways : {1u, 3u, 4u, 8u}) {
        for (std::uint32_t num_sets : {16u, 12u}) {
            for (std::uint32_t banks : {1u, 3u, 8u}) {
                SCOPED_TRACE(testing::Message()
                             << ways << " ways, " << num_sets
                             << " sets, " << banks << " banks");
                L2Params p;
                p.ways = ways;
                p.banks = banks;
                p.size_bytes =
                    std::uint64_t(num_sets) * ways * line_bytes;

                stats::Group stats("g");
                DramModel dram(stats);
                L2Cache l2(stats, dram, p);
                stats::Group ref_stats("ref");
                DramModel ref_dram(ref_stats);
                NaiveL2 ref(ref_dram, p);

                // A footprint of three times the capacity keeps every
                // set evicting; requests of up to 200 B span lines.
                const std::uint64_t footprint =
                    std::uint64_t(num_sets) * ways * 3 * line_bytes;
                Rng rng(seed++);
                Tick when = 0;
                for (int i = 0; i < 3000; ++i) {
                    if (rng.chance(0.01)) {
                        l2.invalidateAll();
                        ref.invalidateAll();
                        continue;
                    }
                    const MemRequest req{
                        0x8000'0000 + rng.below(footprint),
                        static_cast<std::uint32_t>(1 + rng.below(200)),
                        rng.chance(0.4) ? MemOp::write : MemOp::read,
                        World::normal};
                    const MemResult got = l2.access(when, req);
                    const MemResult want = ref.access(when, req);
                    ASSERT_EQ(got.done, want.done) << "access " << i;
                    ASSERT_EQ(got.l2_hit, want.l2_hit) << "access " << i;
                    // Same-tick bursts contend for banks; gaps let
                    // them drain.
                    when += rng.chance(0.5) ? 0 : rng.below(300);
                }
                EXPECT_EQ(l2.hits(), ref.hits);
                EXPECT_EQ(l2.misses(), ref.misses);
                const auto *wb = dynamic_cast<const stats::Scalar *>(
                    stats.find("l2_writebacks"));
                ASSERT_NE(wb, nullptr);
                EXPECT_EQ(static_cast<std::uint64_t>(wb->value()),
                          ref.writebacks);
                EXPECT_GT(ref.writebacks, 0u);
                EXPECT_GT(ref.hits, 0u);
            }
        }
    }
}

TEST(L2ReferenceModel, StaleStampsNeverPickTheVictim)
{
    // One set of four ways, one bank: line k * 16 maps to set 0.
    L2Params p;
    p.ways = 4;
    p.banks = 1;
    p.size_bytes = 16 * 4 * line_bytes;
    stats::Group stats("g");
    DramModel dram(stats);
    L2Cache l2(stats, dram, p);
    stats::Group ref_stats("ref");
    DramModel ref_dram(ref_stats);
    NaiveL2 ref(ref_dram, p);

    Tick when = 0;
    std::vector<bool> hits;
    const auto touch = [&](std::uint32_t k, MemOp op) {
        const MemRequest req{0x8000'0000 + Addr(k) * 16 * line_bytes,
                             line_bytes, op, World::normal};
        const MemResult got = l2.access(when, req);
        const MemResult want = ref.access(when, req);
        EXPECT_EQ(got.done, want.done) << "line " << k;
        EXPECT_EQ(got.l2_hit, want.l2_hit) << "line " << k;
        hits.push_back(got.l2_hit);
        when = want.done;
    };

    // Fill the set with dirty lines 0-3, then make line 0 the most
    // recently used, so ways 1-3 hold the oldest stamps.
    for (std::uint32_t k = 0; k < 4; ++k)
        touch(k, MemOp::write);
    touch(0, MemOp::read);
    l2.invalidateAll();
    ref.invalidateAll();

    // Refill half the set. Ways 2 and 3 keep stale tags (lines 2 and
    // 3) and stamps older than anything filled since.
    touch(10, MemOp::read);
    touch(11, MemOp::read);
    touch(2, MemOp::read); // a stale tag must not hit
    // The set is full again (10, 11, 2 and now 12): the next misses
    // evict 10, then 11, never a way by its pre-epoch stamp.
    touch(12, MemOp::read);
    touch(13, MemOp::read);
    touch(14, MemOp::read);
    touch(2, MemOp::read);
    touch(12, MemOp::read);
    // 10 evicts 13 (2 and 12 were just used); 11 is gone, so it
    // misses and evicts 14.
    touch(10, MemOp::read);
    touch(11, MemOp::read);
    touch(14, MemOp::read);

    const std::vector<bool> want_hits = {false, false, false, false, true,
                                         false, false, false, false,
                                         false, false, true,  true,
                                         false, false, false};
    EXPECT_EQ(hits, want_hits);
    EXPECT_EQ(l2.hits(), ref.hits);
    EXPECT_EQ(l2.misses(), ref.misses);
    // The dirty lines were dropped by invalidateAll(), so the clean
    // refills wrote nothing back.
    EXPECT_EQ(ref.writebacks, 0u);
    const auto *wb = dynamic_cast<const stats::Scalar *>(
        stats.find("l2_writebacks"));
    ASSERT_NE(wb, nullptr);
    EXPECT_EQ(wb->value(), 0.0);
}

} // namespace
} // namespace snpu
