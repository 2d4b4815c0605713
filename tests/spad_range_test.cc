/**
 * @file
 * Differential tests for the scratchpad's range-granular checks:
 * ruleAllows() + commitRange() (falling back to the per-row loop
 * when a range is not allowed, or is a read under a read-probing
 * fault plan) must leave a scratchpad exactly where the per-row
 * read()/write() loop leaves its twin — same status, all five stats,
 * the ID image, the write record and the fault-occurrence counts, at
 * two domains and at four. Also covers the lazily allocated data
 * array.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "spad/scratchpad.hh"

namespace snpu
{
namespace
{

constexpr std::uint32_t kRows = 64;
constexpr std::uint32_t kBoundary = 24;

/** One data-free access of @c count rows. */
struct RangeOp
{
    DomainId world;
    std::uint32_t first;
    std::uint32_t count;
    bool is_write;
};

SpadStatus
perRow(Scratchpad &pad, const RangeOp &op)
{
    for (std::uint32_t r = 0; r < op.count; ++r) {
        const SpadStatus st =
            op.is_write ? pad.write(op.world, op.first + r, nullptr)
                        : pad.read(op.world, op.first + r, nullptr);
        if (st != SpadStatus::ok)
            return st;
    }
    return SpadStatus::ok;
}

SpadStatus
ranged(Scratchpad &pad, const RangeOp &op)
{
    if ((!op.is_write && pad.probesReads()) ||
        !pad.ruleAllows(op.world, op.first, op.count, op.is_write))
        return perRow(pad, op);
    pad.commitRange(op.world, op.first, op.count, op.is_write);
    return SpadStatus::ok;
}

std::string
statsJson(const stats::Group &g)
{
    std::ostringstream os;
    g.dumpJson(os);
    return os.str();
}

/**
 * A tag other than @p d: the other world, or at more domains a random
 * valid one.
 */
DomainId
other(DomainId d, std::uint32_t domains, Rng &rng)
{
    if (domains == 2)
        return d == World::secure ? World::normal : World::secure;
    DomainId t;
    do {
        t = DomainId(static_cast<std::uint8_t>(rng.below(domains)));
    } while (t == d);
    return t;
}

/** Fault plans the twins are armed with. */
enum class Faults
{
    /** No injector. */
    off,
    /** Armed, but at no scratchpad site: ranges stay batched. */
    untargeted,
    /** Armed at spad_id_mismatch: reads fall back to per-row. */
    targeted,
};

FaultPlan
planFor(Faults f, std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    FaultSpec spec;
    spec.trigger = FaultTrigger::probability;
    spec.probability = 0.02;
    spec.max_fires = 0;
    spec.site = f == Faults::targeted ? FaultSite::spad_id_mismatch
                                      : FaultSite::dma_transfer;
    plan.faults.push_back(spec);
    return plan;
}

/**
 * A random op aimed at the interesting edges of the geometry. Beyond
 * two domains its tag may also be one past the last valid one.
 */
RangeOp
randomOp(Rng &rng, std::uint32_t domains)
{
    RangeOp op;
    if (domains == 2)
        op.world = rng.chance(0.5) ? World::secure : World::normal;
    else
        op.world = DomainId(static_cast<std::uint8_t>(rng.below(domains + 1)));
    op.is_write = rng.chance(0.5);
    op.count = static_cast<std::uint32_t>(rng.below(20));
    switch (rng.below(3)) {
      case 0: // anywhere
        op.first = static_cast<std::uint32_t>(rng.below(kRows));
        break;
      case 1: // straddling the partition boundary
        op.first = static_cast<std::uint32_t>(
            rng.range(kBoundary - 10, kBoundary));
        break;
      default: // running past rows()
        op.first = static_cast<std::uint32_t>(
            rng.range(kRows - 12, kRows + 2));
        break;
    }
    return op;
}

using Case = std::tuple<IsolationMode, SpadScope, bool, Faults,
                        std::uint32_t>;

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    static const char *const modes[] = {"none", "partition", "id_based"};
    static const char *const faults[] = {"faults_off", "untargeted",
                                         "targeted"};
    const auto [mode, scope, record, f, domains] = info.param;
    return std::string(modes[static_cast<int>(mode)]) +
           (scope == SpadScope::local ? "_local" : "_global") +
           (record ? "_recording_" : "_") + faults[static_cast<int>(f)];
}

class SpadRangeDiff : public ::testing::TestWithParam<Case>
{
};

TEST_P(SpadRangeDiff, RangeCommitMatchesPerRowLoop)
{
    const auto [mode, scope, record, faults, domains] = GetParam();
    SpadParams p;
    p.rows = kRows;
    p.row_bytes = 16;
    p.scope = scope;
    p.mode = mode;
    p.partition_boundary = kBoundary;
    p.domains = domains;

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        stats::Group ref_stats("spad"), fast_stats("spad");
        Scratchpad ref(ref_stats, p), fast(fast_stats, p);
        FaultInjector ref_inj(planFor(faults, seed));
        FaultInjector fast_inj(planFor(faults, seed));
        if (faults != Faults::off) {
            ref.armFaults(&ref_inj);
            fast.armFaults(&fast_inj);
        }
        if (record) {
            ref.beginWriteRecord();
            fast.beginWriteRecord();
        }

        Rng rng(seed);
        for (int i = 0; i < 300; ++i) {
            const RangeOp op = randomOp(rng, domains);
            // Plant one foreign-ID row at a random offset inside the
            // range, on both twins.
            if (op.count > 0 && rng.chance(0.3)) {
                const std::uint32_t row =
                    op.first + static_cast<std::uint32_t>(
                                   rng.below(op.count));
                if (row < kRows) {
                    const DomainId tag = other(op.world, domains, rng);
                    ref.setIdRange(row, 1, tag);
                    fast.setIdRange(row, 1, tag);
                }
            }
            ASSERT_EQ(perRow(ref, op), ranged(fast, op)) << "op " << i;
            ASSERT_EQ(statsJson(ref_stats), statsJson(fast_stats))
                << "op " << i;
            ASSERT_EQ(ref.idImage(), fast.idImage()) << "op " << i;
        }

        EXPECT_EQ(ref_inj.occurrences(FaultSite::spad_id_mismatch),
                  fast_inj.occurrences(FaultSite::spad_id_mismatch));
        EXPECT_EQ(ref_inj.occurrences(FaultSite::spad_bit_flip),
                  fast_inj.occurrences(FaultSite::spad_bit_flip));
        EXPECT_EQ(ref_inj.fireCount(), fast_inj.fireCount());
        if (record) {
            std::vector<Scratchpad::WrittenRange> a, b;
            ref.endWriteRecord(a);
            fast.endWriteRecord(b);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i].first, b[i].first);
                EXPECT_EQ(a[i].count, b[i].count);
                EXPECT_EQ(a[i].tag, b[i].tag);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesScopesRecording, SpadRangeDiff,
    ::testing::Combine(
        ::testing::Values(IsolationMode::none, IsolationMode::partition,
                          IsolationMode::id_based),
        ::testing::Values(SpadScope::local, SpadScope::global),
        ::testing::Bool(),
        ::testing::Values(Faults::off, Faults::untargeted,
                          Faults::targeted),
        ::testing::Values(2u)),
    caseName);

// The ID rules at four domains: a secure domain's global access must
// be denied by another secure domain's lines.
INSTANTIATE_TEST_SUITE_P(
    FourDomains, SpadRangeDiff,
    ::testing::Combine(::testing::Values(IsolationMode::id_based),
                       ::testing::Values(SpadScope::local,
                                         SpadScope::global),
                       ::testing::Bool(),
                       ::testing::Values(Faults::off, Faults::untargeted,
                                         Faults::targeted),
                       ::testing::Values(4u)),
    caseName);

TEST(SpadRange, OutOfRangeAndTargetedReadsAreNotAllowed)
{
    stats::Group g("g");
    SpadParams p;
    p.rows = kRows;
    p.mode = IsolationMode::none;
    Scratchpad pad(g, p);
    EXPECT_TRUE(pad.ruleAllows(World::normal, 0, kRows, false));
    EXPECT_TRUE(pad.ruleAllows(World::normal, kRows, 0, true));
    EXPECT_FALSE(pad.ruleAllows(World::normal, kRows - 1, 2, true));
    EXPECT_FALSE(pad.ruleAllows(World::normal, 1, 0xffffffffu, false));
    EXPECT_FALSE(pad.probesReads());

    FaultPlan plan;
    plan.faults.push_back(FaultSpec{FaultSite::spad_bit_flip});
    FaultInjector inj(plan);
    pad.armFaults(&inj);
    // A targeted site must be probed row by row, so reads may not be
    // committed as a range; the rule itself (and so any write) is
    // unaffected.
    EXPECT_TRUE(pad.probesReads());
    EXPECT_TRUE(pad.ruleAllows(World::normal, 0, 4, false));
    EXPECT_TRUE(pad.ruleAllows(World::normal, 0, 4, true));
}

TEST(FaultInjectorSkip, CountsUntargetedOccurrencesAndRefusesArmedSites)
{
    FaultPlan plan;
    plan.faults.push_back(FaultSpec{FaultSite::dma_transfer});
    FaultInjector inj(plan);
    EXPECT_TRUE(inj.targets(FaultSite::dma_transfer));
    EXPECT_FALSE(inj.targets(FaultSite::spad_id_mismatch));
    inj.skip(FaultSite::spad_id_mismatch, 41);
    EXPECT_FALSE(inj.shouldInject(FaultSite::spad_id_mismatch, 0));
    EXPECT_EQ(inj.occurrences(FaultSite::spad_id_mismatch), 42u);
    EXPECT_THROW(inj.skip(FaultSite::dma_transfer, 1), PanicError);
}

TEST(SpadLazyData, FreshPadReadsZerosWithoutAllocating)
{
    stats::Group g("g");
    Scratchpad pad(g, SpadParams{});
    EXPECT_FALSE(pad.holdsData());

    std::vector<std::uint8_t> row(pad.rowBytes(), 0xaa);
    ASSERT_EQ(pad.read(World::normal, 7, row.data()), SpadStatus::ok);
    EXPECT_EQ(row, std::vector<std::uint8_t>(pad.rowBytes(), 0));
    // Data-free writes, resets and ID changes store no bytes.
    ASSERT_EQ(pad.write(World::secure, 7, nullptr), SpadStatus::ok);
    EXPECT_TRUE(pad.secureReset(0, 16, true));
    pad.setIdRange(0, 8, World::secure);
    EXPECT_FALSE(pad.holdsData());

    // A mutable rawRow() allocates, and shows zeros.
    const std::uint8_t *raw = pad.rawRow(pad.rows() - 1);
    EXPECT_TRUE(pad.holdsData());
    for (std::uint32_t i = 0; i < pad.rowBytes(); ++i)
        EXPECT_EQ(raw[i], 0);
}

TEST(SpadLazyData, DataWriteAllocates)
{
    stats::Group g("g");
    Scratchpad pad(g, SpadParams{});
    std::vector<std::uint8_t> src(pad.rowBytes(), 0x5c);
    ASSERT_EQ(pad.write(World::normal, 3, src.data()), SpadStatus::ok);
    EXPECT_TRUE(pad.holdsData());
    std::vector<std::uint8_t> out(pad.rowBytes());
    ASSERT_EQ(pad.read(World::normal, 3, out.data()), SpadStatus::ok);
    EXPECT_EQ(out, src);
    ASSERT_EQ(pad.read(World::normal, 4, out.data()), SpadStatus::ok);
    EXPECT_EQ(out, std::vector<std::uint8_t>(pad.rowBytes(), 0));
}

TEST(SpadLazyData, InjectedBitFlipAllocates)
{
    stats::Group g("g");
    Scratchpad pad(g, SpadParams{});
    FaultPlan plan;
    plan.faults.push_back(FaultSpec{FaultSite::spad_bit_flip});
    FaultInjector inj(plan);
    pad.armFaults(&inj);

    ASSERT_EQ(pad.read(World::normal, 9, nullptr), SpadStatus::ok);
    EXPECT_TRUE(pad.holdsData());
    EXPECT_EQ(pad.corruptions(), 1u);
    EXPECT_EQ(pad.rawRow(9)[0], 1);
}

} // namespace
} // namespace snpu
