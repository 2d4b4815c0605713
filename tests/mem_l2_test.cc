/**
 * @file
 * Unit tests for the banked L2 cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "mem/l2_cache.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

/** One DRAM access, added to the stats at once. */
Tick
dramAccess(DramModel &dram, Tick when, std::uint32_t bytes, MemOp op)
{
    MemTally t;
    const Tick done = dram.access(when, bytes, op, t);
    dram.commit(t);
    return done;
}

/** A timed L2 access: its completion tick and its stat increments. */
struct L2Access
{
    Tick done = 0;
    MemTally tally;
};

/** One timed L2 access, added to the stats at once. */
L2Access
l2Access(L2Cache &l2, Tick when, const MemRequest &req)
{
    L2Access a;
    a.done = l2.accessLines(when, req.paddr, req.bytes, req.op, a.tally);
    l2.commit(a.tally);
    return a;
}

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
        p.size_bytes = 16 * 1024; // 16 KiB: 256 lines, 32 sets
        p.banks = 4;
        return p;
    }

    MemRequest
    read(Addr addr, std::uint32_t bytes = 64)
    {
        return MemRequest{addr, bytes, MemOp::read, World::normal};
    }

    L2Access
    access(Tick when, const MemRequest &req)
    {
        return l2Access(l2, when, req);
    }

    stats::Group stats;
    DramModel dram;
    L2Cache l2;
};

TEST_F(L2Fixture, FirstAccessMissesSecondHits)
{
    const L2Access r1 = access(0, read(0x8000'0000));
    EXPECT_EQ(l2.misses(), 1u);
    EXPECT_EQ(r1.tally.l2_misses, 1u);
    EXPECT_EQ(r1.tally.l2_hits, 0u);

    const L2Access r2 = access(r1.done, read(0x8000'0000));
    EXPECT_EQ(l2.hits(), 1u);
    EXPECT_EQ(r2.tally.l2_hits, 1u);
    EXPECT_EQ(r2.tally.l2_misses, 0u);
    EXPECT_LT(r2.done - r1.done, r1.done); // hit is much faster
}

TEST_F(L2Fixture, HitLatencyMatchesParameter)
{
    const L2Access miss = access(0, read(0x8000'0000));
    const L2Access hit = access(miss.done, read(0x8000'0000));
    EXPECT_EQ(hit.done - miss.done, L2Cache::hit_latency);
}

TEST_F(L2Fixture, MultiLineRequestTouchesEachLine)
{
    access(0, read(0x8000'0000, 256)); // 4 lines
    EXPECT_EQ(l2.misses(), 4u);
}

TEST_F(L2Fixture, LruEvictsOldest)
{
    // 8 ways per set; the set repeats every 32 sets * 64 B = 2 KiB.
    const Addr base = 0x8000'0000;
    const Addr stride = 2048;
    // Fill all eight ways of set 0.
    Tick t = 0;
    for (int w = 0; w < 8; ++w)
        t = access(t, read(base + w * stride)).done;
    // Touch way 0 so way 1 becomes LRU.
    t = access(t, read(base)).done;
    // Insert a ninth line: evicts way 1.
    t = access(t, read(base + 8 * stride)).done;
    // Ways 0 and 2-7 still hit; way 1 misses again.
    const std::uint64_t misses_before = l2.misses();
    t = access(t, read(base)).done;
    for (int w = 2; w < 8; ++w)
        t = access(t, read(base + w * stride)).done;
    EXPECT_EQ(l2.misses(), misses_before);
    access(t, read(base + stride));
    EXPECT_EQ(l2.misses(), misses_before + 1);
}

TEST_F(L2Fixture, DirtyEvictionWritesBack)
{
    const Addr base = 0x8000'0000;
    const Addr stride = 2048;
    Tick t = 0;
    // Dirty one line.
    t = access(t, MemRequest{base, 64, MemOp::write, World::normal}).done;
    const std::uint64_t dram_writes_before =
        static_cast<std::uint64_t>(dram.totalBytes());
    // Evict it by filling the set.
    for (int w = 1; w <= 8; ++w)
        t = access(t, read(base + w * stride)).done;
    EXPECT_GT(dram.totalBytes(), dram_writes_before);
}

TEST_F(L2Fixture, InvalidateAllForcesMisses)
{
    Tick t = access(0, read(0x8000'0000)).done;
    l2.invalidateAll();
    access(t, read(0x8000'0000));
    EXPECT_EQ(l2.misses(), 2u);
}

TEST_F(L2Fixture, BankConflictSerializes)
{
    // Two lines in the same bank (stride = banks * line = 256 B).
    Tick t = access(0, read(0x8000'0000)).done;
    t = access(t, read(0x8000'0000 + 256)).done;
    // Both warm: same-tick hits to the same bank serialize by the
    // bank cycle time; a hit in a different bank does not.
    const Tick a = access(10000, read(0x8000'0000)).done;
    const Tick b = access(10000, read(0x8000'0000 + 256)).done;
    EXPECT_EQ(b - a, L2Cache::bank_cycle);

    access(20000, read(0x8000'0000 + 64));
    const Tick c = access(30000, read(0x8000'0000)).done;
    const Tick d = access(30000, read(0x8000'0000 + 64)).done;
    EXPECT_EQ(c, d);
}

TEST_F(L2Fixture, ZeroByteAccessPanics)
{
    EXPECT_THROW(access(0, read(0x8000'0000, 0)), PanicError);
}

TEST(L2Geometry, BadGeometryIsFatal)
{
    stats::Group stats("g");
    DramModel dram(stats);
    L2Params p;
    p.size_bytes = 0; // no lines at all
    EXPECT_THROW(L2Cache(stats, dram, p), FatalError);
    p.size_bytes = 100; // one line, not a whole 8-way set
    EXPECT_THROW(L2Cache(stats, dram, p), FatalError);
    p.size_bytes = 12 * line_bytes; // one and a half sets
    EXPECT_THROW(L2Cache(stats, dram, p), FatalError);
    p.size_bytes = 16 * line_bytes; // two sets
    EXPECT_NO_THROW(L2Cache(stats, dram, p));
    p.banks = 0; // would divide by zero picking a line's bank
    EXPECT_THROW(L2Cache(stats, dram, p), FatalError);
}

TEST_F(L2Fixture, LineBeyondTheTagRangePanics)
{
    // A tag is a 32-bit line number: the last line below 256 GiB is
    // cached, the first line at 256 GiB panics, even as the second
    // line of a request.
    const Addr limit = Addr(1) << 38;
    EXPECT_NO_THROW(access(0, read(limit - line_bytes)));
    EXPECT_THROW(access(0, read(limit)), PanicError);
    EXPECT_THROW(access(0, read(limit - 32)), PanicError);
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
          sets(p.size_bytes / line_bytes / L2Cache::ways),
          bank_free(p.banks, 0)
    {
    }

    /** done, and the hit, miss and write-back counts it added. */
    L2Access
    access(Tick when, const MemRequest &req)
    {
        L2Access r;
        const std::uint64_t hits_before = hits;
        const std::uint64_t misses_before = misses;
        const std::uint64_t writebacks_before = writebacks;
        r.done = when;
        for (Addr line = req.paddr / line_bytes;
             line <= (req.paddr + req.bytes - 1) / line_bytes; ++line)
            r.done = std::max(r.done, accessLine(when, line, req.op));
        r.tally.l2_hits = hits - hits_before;
        r.tally.l2_misses = misses - misses_before;
        r.tally.l2_writebacks = writebacks - writebacks_before;
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
        bank = start + L2Cache::bank_cycle;
        for (Line &l : set) {
            if (l.line == line) {
                ++hits;
                l.last_use = ++clock;
                l.dirty |= op == MemOp::write;
                return start + L2Cache::hit_latency;
            }
        }
        ++misses;
        const Tick ready = start + L2Cache::hit_latency;
        if (set.size() == L2Cache::ways) {
            auto lru = std::min_element(
                set.begin(), set.end(), [](const Line &a, const Line &b) {
                    return a.last_use < b.last_use;
                });
            if (lru->dirty) {
                ++writebacks;
                dramAccess(dram, ready, line_bytes, MemOp::write);
            }
            set.erase(lru);
        }
        set.push_back(Line{line, op == MemOp::write, ++clock});
        return dramAccess(dram, ready, line_bytes, MemOp::read);
    }

    DramModel &dram;
    const L2Params p;
    std::vector<std::vector<Line>> sets;
    std::vector<Tick> bank_free;
    std::uint64_t clock = 0;
};

/**
 * Expect @p got to match the reference access @p want: the same
 * completion tick and the same hit, miss and write-back increments.
 * @return whether it does.
 */
bool
expectSameAccess(const L2Access &got, const L2Access &want)
{
    EXPECT_EQ(got.done, want.done);
    EXPECT_EQ(got.tally.l2_hits, want.tally.l2_hits);
    EXPECT_EQ(got.tally.l2_misses, want.tally.l2_misses);
    EXPECT_EQ(got.tally.l2_writebacks, want.tally.l2_writebacks);
    return got.done == want.done &&
           got.tally.l2_hits == want.tally.l2_hits &&
           got.tally.l2_misses == want.tally.l2_misses &&
           got.tally.l2_writebacks == want.tally.l2_writebacks;
}

/**
 * Drive 3000 random accesses of up to 200 B (so some span lines)
 * over @p footprint bytes, with an occasional invalidateAll(), through
 * an L2 of geometry @p p and through NaiveL2, access by access: each
 * access's tick and stat increments must match.
 * @return the reference model's hit and miss counts.
 */
std::pair<std::uint64_t, std::uint64_t>
expectMatchesNaive(const L2Params &p, std::uint64_t footprint,
                   std::uint64_t seed)
{
    stats::Group stats("g");
    DramModel dram(stats);
    L2Cache l2(stats, dram, p);
    stats::Group ref_stats("ref");
    DramModel ref_dram(ref_stats);
    NaiveL2 ref(ref_dram, p);

    Rng rng(seed);
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
            rng.chance(0.4) ? MemOp::write : MemOp::read, World::normal};
        SCOPED_TRACE(testing::Message() << "access " << i);
        if (!expectSameAccess(l2Access(l2, when, req),
                              ref.access(when, req)))
            break;
        // Same-tick bursts contend for banks; gaps let them drain.
        when += rng.chance(0.5) ? 0 : rng.below(300);
    }
    EXPECT_EQ(l2.hits(), ref.hits);
    EXPECT_EQ(l2.misses(), ref.misses);
    const auto *wb =
        dynamic_cast<const stats::Scalar *>(stats.find("l2_writebacks"));
    EXPECT_NE(wb, nullptr);
    if (wb) {
        EXPECT_EQ(static_cast<std::uint64_t>(wb->value()),
                  ref.writebacks);
    }
    EXPECT_GT(ref.writebacks, 0u);
    EXPECT_GT(ref.hits, 0u);
    return {ref.hits, ref.misses};
}

TEST(L2ReferenceModel, MatchesNaiveLruAcrossGeometries)
{
    std::uint64_t seed = 1;
    for (std::uint32_t num_sets : {1u, 2u, 12u, 16u}) {
        for (std::uint32_t banks : {1u, 3u, 8u}) {
            SCOPED_TRACE(testing::Message()
                         << num_sets << " sets, " << banks << " banks");
            L2Params p;
            p.banks = banks;
            p.size_bytes =
                std::uint64_t(num_sets) * L2Cache::ways * line_bytes;
            // Three times the capacity keeps every set evicting.
            expectMatchesNaive(p, 3 * p.size_bytes, seed);
            // A quarter more than the capacity makes most accesses
            // hit in full sets, so hits reorder the recency list.
            const auto [hits, misses] =
                expectMatchesNaive(p, p.size_bytes * 5 / 4, seed + 100);
            EXPECT_GT(hits, misses);
            ++seed;
        }
    }
}

TEST(L2ReferenceModel, StaleStampsNeverPickTheVictim)
{
    // One set of eight ways, one bank: every line maps to it.
    L2Params p;
    p.banks = 1;
    p.size_bytes = L2Cache::ways * line_bytes;
    stats::Group stats("g");
    DramModel dram(stats);
    L2Cache l2(stats, dram, p);
    stats::Group ref_stats("ref");
    DramModel ref_dram(ref_stats);
    NaiveL2 ref(ref_dram, p);

    Tick when = 0;
    std::vector<bool> hits;
    const auto touch = [&](std::uint32_t k, MemOp op) {
        SCOPED_TRACE(testing::Message() << "line " << k);
        const MemRequest req{0x8000'0000 + Addr(k) * line_bytes,
                             line_bytes, op, World::normal};
        const L2Access got = l2Access(l2, when, req);
        const L2Access want = ref.access(when, req);
        expectSameAccess(got, want);
        hits.push_back(got.tally.l2_hits == 1);
        when = want.done;
    };

    // Fill the set with dirty lines 0-7, then make line 0 the most
    // recently used, so ways 1-7 are the least recently used.
    for (std::uint32_t k = 0; k < 8; ++k)
        touch(k, MemOp::write);
    touch(0, MemOp::read);
    l2.invalidateAll();
    ref.invalidateAll();

    // Refill most of the set. Ways 6 and 7 keep stale tags (lines 6
    // and 7) and their places at the back of the old recency list.
    for (std::uint32_t k = 10; k < 16; ++k)
        touch(k, MemOp::read);
    touch(6, MemOp::read); // a stale tag must not hit
    // The set is full again (10-15, 6 and now 16): the next misses
    // evict 10, 11 and 12, never a way by its pre-epoch recency.
    touch(16, MemOp::read);
    touch(17, MemOp::read);
    touch(18, MemOp::read);
    touch(19, MemOp::read);
    touch(6, MemOp::read);
    touch(16, MemOp::read);
    // 10 evicts 13 (6 and 16 were just used); 11 and 13 are gone, so
    // they miss and evict 14 and 15.
    touch(10, MemOp::read);
    touch(11, MemOp::read);
    touch(13, MemOp::read);
    touch(17, MemOp::read);

    std::vector<bool> want_hits(8, false);
    want_hits.push_back(true);                 // 0
    want_hits.insert(want_hits.end(), 7, false); // 10-15, 6
    want_hits.insert(want_hits.end(), 4, false); // 16-19
    want_hits.insert(want_hits.end(), 2, true);  // 6, 16
    want_hits.insert(want_hits.end(), 3, false); // 10, 11, 13
    want_hits.push_back(true);                 // 17
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
