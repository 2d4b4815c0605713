/**
 * @file
 * Unit and property tests for the DRAM bandwidth model.
 */

#include <algorithm>
#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

#include "mem/dram_model.hh"
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

TEST(Dram, SingleAccessPaysLatencyPlusTransfer)
{
    stats::Group stats("g");
    DramModel dram(stats);
    // 64 bytes at 16 B/cycle: 4 transfer cycles + 100 latency.
    EXPECT_EQ(dramAccess(dram, 0, 64, MemOp::read), 104u);
}

TEST(Dram, BackToBackAccessesQueue)
{
    stats::Group stats("g");
    DramModel dram(stats);
    dramAccess(dram, 0, 64, MemOp::read);
    // Channel busy until tick 4; second access starts there.
    EXPECT_EQ(dramAccess(dram, 0, 64, MemOp::read), 108u);
    EXPECT_EQ(dram.nextFree(), 8u);
}

TEST(Dram, IdleChannelDoesNotQueue)
{
    stats::Group stats("g");
    DramModel dram(stats);
    dramAccess(dram, 0, 64, MemOp::read);
    EXPECT_EQ(dramAccess(dram, 1000, 64, MemOp::write), 1104u);
}

TEST(Dram, ResetClearsQueueState)
{
    stats::Group stats("g");
    DramModel dram(stats);
    dramAccess(dram, 0, 4096, MemOp::read);
    dram.reset();
    EXPECT_EQ(dram.nextFree(), 0u);
    EXPECT_EQ(dramAccess(dram, 0, 64, MemOp::read), 104u);
}

TEST(Dram, ZeroByteAccessPanics)
{
    stats::Group stats("g");
    DramModel dram(stats);
    EXPECT_THROW(dramAccess(dram, 0, 0, MemOp::read), PanicError);
}

TEST(Dram, BadBandwidthIsFatal)
{
    stats::Group stats("g");
    DramParams params;
    params.bytes_per_cycle = 0;
    EXPECT_THROW(DramModel(stats, params), FatalError);
}

TEST(Dram, SustainedStreamAchievesConfiguredBandwidth)
{
    stats::Group stats("g");
    DramModel dram(stats);
    // Stream 1 MiB in 64-byte packets issued as fast as possible.
    const std::uint64_t total = 1u << 20;
    Tick done = 0;
    for (std::uint64_t off = 0; off < total; off += 64)
        done = dramAccess(dram, 0, 64, MemOp::read);
    // Effective bandwidth = total / busy-time; latency amortizes.
    const double cycles = static_cast<double>(dram.nextFree());
    const double bpc = static_cast<double>(total) / cycles;
    EXPECT_NEAR(bpc, 16.0, 0.1);
    EXPECT_GE(done, dram.nextFree());
}

TEST(Dram, FractionalBandwidthConserved)
{
    stats::Group stats("g");
    DramParams params;
    params.bytes_per_cycle = 6.4; // non-integer rate
    DramModel dram(stats, params);
    const std::uint64_t total = 64000;
    for (std::uint64_t off = 0; off < total; off += 64)
        dramAccess(dram, 0, 64, MemOp::read);
    const double bpc =
        static_cast<double>(total) / static_cast<double>(dram.nextFree());
    EXPECT_NEAR(bpc, 6.4, 0.1);
}

/**
 * The channel step as it was before DramModel memoized it: every
 * access runs the carry arithmetic. Same stat names as DramModel, so
 * the two groups' JSON can be compared directly.
 */
class ReferenceDram
{
  public:
    ReferenceDram(stats::Group &stats, DramParams params)
        : params(params),
          reads(stats, "dram_reads", "DRAM read requests"),
          writes(stats, "dram_writes", "DRAM write requests"),
          bytes_moved(stats, "dram_bytes", "bytes moved over the channel"),
          queue_delay(stats, "dram_queue_delay",
                      "cycles spent waiting for the channel")
    {}

    Tick
    access(Tick when, std::uint32_t bytes, MemOp op)
    {
        if (op == MemOp::read)
            ++reads;
        else
            ++writes;
        bytes_moved += bytes;
        const Tick start = std::max(when, next_free);
        queue_delay.sample(static_cast<double>(start - when));
        carry_bytes += static_cast<double>(bytes);
        Tick transfer =
            static_cast<Tick>(carry_bytes / params.bytes_per_cycle);
        if (transfer == 0)
            transfer = 1;
        carry_bytes -=
            static_cast<double>(transfer) * params.bytes_per_cycle;
        if (carry_bytes < 0)
            carry_bytes = 0;
        next_free = start + transfer;
        busy_cycles += transfer;
        return start + DramModel::access_latency + transfer;
    }

    Tick nextFree() const { return next_free; }
    Tick busyCycles() const { return busy_cycles; }
    void reset() { next_free = 0; carry_bytes = 0.0; }
    void rebase(Tick free_at) { next_free = std::max(next_free, free_at); }

  private:
    DramParams params;
    Tick next_free = 0;
    double carry_bytes = 0.0;
    Tick busy_cycles = 0;
    stats::Scalar reads;
    stats::Scalar writes;
    stats::Scalar bytes_moved;
    stats::Average queue_delay;
};

class DramStepMemoTest : public ::testing::TestWithParam<double>
{
};

TEST_P(DramStepMemoTest, MatchesUnmemoizedArithmetic)
{
    DramParams params;
    params.bytes_per_cycle = GetParam();
    stats::Group got_stats("g");
    stats::Group want_stats("g");
    DramModel got(got_stats, params);
    ReferenceDram want(want_stats, params);

    // Runs of one size (the memo hits) broken by other sizes (it
    // misses, then hits again), with the odd reset() or rebase().
    const std::uint32_t sizes[] = {64, 64, 64, 32, 128, 8, 1, 100};
    Rng rng(0xd7a3 + static_cast<std::uint64_t>(params.bytes_per_cycle));
    Tick when = 0;
    std::uint32_t bytes = 64;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t roll = rng.below(1000);
        if (roll < 3) {
            got.reset();
            want.reset();
        } else if (roll < 6) {
            const Tick free_at = when + rng.below(300);
            got.rebase(free_at);
            want.rebase(free_at);
        } else if (roll < 100) {
            bytes = sizes[rng.below(std::size(sizes))];
        }
        when += rng.below(6);
        const MemOp op = rng.below(4) == 0 ? MemOp::write : MemOp::read;
        ASSERT_EQ(dramAccess(got, when, bytes, op),
                  want.access(when, bytes, op))
            << "access " << i << " of " << bytes << " B";
        ASSERT_EQ(got.nextFree(), want.nextFree()) << "access " << i;
        ASSERT_EQ(got.busyCycles(), want.busyCycles()) << "access " << i;
    }
    std::ostringstream got_json;
    std::ostringstream want_json;
    got_stats.dumpJson(got_json);
    want_stats.dumpJson(want_json);
    EXPECT_EQ(got_json.str(), want_json.str());
}

INSTANTIATE_TEST_SUITE_P(Rates, DramStepMemoTest,
                         ::testing::Values(16.0, 8.0, 6.4, 12.8));

class DramPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DramPropertyTest, CompletionMonotonicAndBandwidthBounded)
{
    stats::Group stats("g");
    DramModel dram(stats);
    Rng rng(GetParam());
    Tick when = 0;
    Tick prev_done = 0;
    std::uint64_t bytes = 0;
    for (int i = 0; i < 2000; ++i) {
        when += rng.below(8);
        const auto size =
            static_cast<std::uint32_t>(8 + rng.below(512));
        const Tick done = dramAccess(dram, when, size, MemOp::read);
        EXPECT_GE(done, when + 100) << "latency floor violated";
        EXPECT_GE(done, prev_done > 100 ? prev_done - 100 : 0);
        prev_done = done;
        bytes += size;
    }
    // The channel can never move data faster than its rated speed.
    EXPECT_GE(static_cast<double>(dram.nextFree()) * 16.0 + 16,
              static_cast<double>(bytes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 99));

} // namespace
} // namespace snpu
