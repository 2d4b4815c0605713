/**
 * @file
 * Unit tests for the flush engine (the TrustZone-NPU temporal
 * sharing strawman).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>

#include "mem/mem_system.hh"
#include "mem_access.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "spad/flush_engine.hh"
#include "spad/scratchpad.hh"

namespace snpu
{
namespace
{

struct FlushFixture : ::testing::Test
{
    FlushFixture()
        : stats("g"), mem(stats),
          spad(stats, [] {
              SpadParams p;
              p.rows = 128;
              p.row_bytes = 16;
              p.mode = IsolationMode::id_based;
              return p;
          }()),
          engine(stats, mem, spad)
    {
        save_area = mem.map().npuArena(World::normal).base;
    }

    stats::Group stats;
    MemSystem mem;
    Scratchpad spad;
    FlushEngine engine;
    Addr save_area = 0;
};

TEST_F(FlushFixture, FlushScrubsRowsAndResetsIds)
{
    std::uint8_t secret[16];
    std::memset(secret, 0x5e, sizeof(secret));
    spad.write(World::secure, 0, secret);
    spad.write(World::secure, 1, secret);

    engine.flush(0, 2, save_area, World::secure);

    // The rows are zeroed and returned to the normal world.
    EXPECT_EQ(spad.idState(0), World::normal);
    EXPECT_EQ(spad.rawRow(0)[0], 0);
    EXPECT_EQ(spad.rawRow(1)[0], 0);
    EXPECT_EQ(engine.flushes(), 1u);
}

TEST_F(FlushFixture, SaveRestoreRoundTripsData)
{
    std::uint8_t pattern[16];
    for (int i = 0; i < 16; ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 3 + 1);
    spad.write(World::secure, 0, pattern);

    Tick t = engine.flush(0, 1, save_area, World::secure);
    EXPECT_EQ(spad.rawRow(0)[0], 0); // scrubbed
    engine.restore(t, 1, save_area, World::secure);
    EXPECT_EQ(std::memcmp(spad.rawRow(0), pattern, 16), 0);
}

TEST_F(FlushFixture, CostScalesWithLiveRows)
{
    const Tick small = engine.flush(0, 8, save_area, World::secure);
    stats::Group stats2("g2");
    MemSystem mem2(stats2);
    SpadParams p;
    p.rows = 128;
    p.row_bytes = 16;
    Scratchpad spad2(stats2, p);
    FlushEngine engine2(stats2, mem2, spad2);
    const Tick large = engine2.flush(0, 96, save_area,
                                     World::secure);
    EXPECT_GT(large, small);
}

TEST_F(FlushFixture, TrafficAccounted)
{
    engine.flush(0, 10, save_area, World::secure);
    EXPECT_EQ(engine.bytesMoved(), 10u * 16);
    Tick t = engine.restore(1000, 10, save_area, World::secure);
    EXPECT_GT(t, 1000u);
    EXPECT_EQ(engine.bytesMoved(), 20u * 16);
}

TEST_F(FlushFixture, LiveRowsClampedToSpadSize)
{
    // Asking to flush more rows than exist must not crash.
    const Tick t = engine.flush(0, 100000, save_area, World::secure);
    EXPECT_GT(t, 0u);
    EXPECT_EQ(engine.bytesMoved(), 128u * 16);
}

/**
 * FlushEngine's save/restore stream against the plainest per-row
 * loop: every row through timedAccess(), one partition check per
 * row, one row issued per cycle. The scratchpad's stats live in their
 * own group; the memory system's and the engine's register in the
 * same order on both sides, so their JSON must match.
 */
TEST(FlushReference, StreamMatchesPerRowLoop)
{
    for (const std::uint32_t row_bytes : {16u, 96u}) {
        SCOPED_TRACE(testing::Message() << row_bytes << " B rows");
        SpadParams sp;
        sp.rows = 128;
        sp.row_bytes = row_bytes;

        stats::Group got_stats("g");
        MemSystem got_mem(got_stats);
        stats::Group spad_stats("spad");
        Scratchpad spad(spad_stats, sp);
        FlushEngine engine(got_stats, got_mem, spad);

        stats::Group want_stats("g");
        MemSystem want_mem(want_stats);
        stats::Scalar flush_count(want_stats, "flush_count", "");
        stats::Scalar restore_count(want_stats, "restore_count", "");
        stats::Scalar flush_bytes(want_stats, "flush_bytes", "");
        const auto perRow = [&](Tick when, std::uint32_t rows,
                                Addr area, MemOp op, World world) {
            Tick t = when;
            Tick done = when;
            for (std::uint32_t row = 0; row < rows; ++row) {
                const MemResult res = timedAccess(
                    want_mem, t,
                    MemRequest{area + Addr(row) * row_bytes, row_bytes,
                               op, world});
                if (!res.ok)
                    throw FatalError("denied");
                done = std::max(done, res.done);
                t += 1;
            }
            flush_bytes += static_cast<double>(rows) * row_bytes;
            return std::max(done, t);
        };

        // An aligned and an unaligned save area, saved then restored,
        // the restore overlapping the save's backlog.
        const Addr arena = got_mem.map().npuArena(World::normal).base;
        for (const Addr area : {arena, arena + 8}) {
            const Tick got_save = engine.flush(100, 100, area, World::normal);
            ++flush_count;
            const Tick want_save =
                perRow(100, 100, area, MemOp::write, World::normal);
            EXPECT_EQ(got_save, want_save);
            const Tick got_restore =
                engine.restore(got_save / 2, 128, area, World::secure);
            ++restore_count;
            const Tick want_restore = perRow(
                want_save / 2, 128, area, MemOp::read, World::secure);
            EXPECT_EQ(got_restore, want_restore);
        }

        // A normal-world save area whose fourth row is secure: both
        // sides stop on that row with the same partial stats.
        const Addr secure = got_mem.map().secureRegion().base;
        const Addr denied_area = secure - 3 * row_bytes;
        EXPECT_THROW(engine.flush(0, 10, denied_area, World::normal),
                     FatalError);
        ++flush_count;
        EXPECT_THROW(
            perRow(0, 10, denied_area, MemOp::write, World::normal),
            FatalError);
        EXPECT_EQ(got_mem.partitionViolations(), 1u);

        std::ostringstream got_json;
        std::ostringstream want_json;
        got_stats.dumpJson(got_json);
        want_stats.dumpJson(want_json);
        EXPECT_EQ(got_json.str(), want_json.str());
    }
}

TEST(FlushGranularityNames, AllNamed)
{
    EXPECT_STREQ(flushGranularityName(FlushGranularity::none), "none");
    EXPECT_STREQ(flushGranularityName(FlushGranularity::tile), "tile");
    EXPECT_STREQ(flushGranularityName(FlushGranularity::layer),
                 "layer");
    EXPECT_STREQ(flushGranularityName(FlushGranularity::layer5),
                 "layer5");
}

} // namespace
} // namespace snpu
