/**
 * @file
 * Tests for the scratchpad's memoized ID-image fingerprint: after any
 * sequence of accesses, range commits, secure resets, check-free ID
 * writes and timing-cache style hit replays, idFingerprint() must
 * equal a fresh hash of idImage() — in every isolation mode and both
 * scopes. Also checks, through the timing cache, that a replayed hit
 * (a segment or a context flush) leaves the tile with the
 * fingerprints a cache-off run computes, and that setMode() keeps
 * the memoized configuration fingerprint current.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/systems.hh"
#include "core/task_runner.hh"
#include "core/timing_cache.hh"
#include "sim/hashing.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "spad/scratchpad.hh"

namespace snpu
{
namespace
{

constexpr std::uint32_t kRows = 64;

std::uint64_t
freshHash(const Scratchpad &pad)
{
    const std::vector<World> &ids = pad.idImage();
    return hashBytesFast(ids.data(), ids.size() * sizeof(World));
}

World
randomWorld(Rng &rng)
{
    return rng.chance(0.5) ? World::secure : World::normal;
}

/** One randomly drawn operation, applied identically to twins. */
struct Op
{
    int kind = 0;
    World world = World::normal;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    bool flag = false;
};

Op
randomOp(Rng &rng)
{
    Op op;
    op.kind = static_cast<int>(rng.below(6));
    op.world = randomWorld(rng);
    op.first = static_cast<std::uint32_t>(rng.below(kRows));
    op.count = static_cast<std::uint32_t>(rng.below(kRows - op.first + 1));
    op.flag = rng.chance(0.5);
    return op;
}

/** Apply @p op; kind 5 (hit replay) is handled by the caller. */
void
apply(Scratchpad &pad, const Op &op)
{
    switch (op.kind) {
      case 0:
        pad.read(op.world, op.first, nullptr);
        break;
      case 1:
        pad.write(op.world, op.first, nullptr);
        break;
      case 2:
        if (pad.rangeAllowed(op.world, op.first, op.count, op.flag))
            pad.commitRange(op.world, op.first, op.count, op.flag);
        break;
      case 3:
        pad.secureReset(op.first, op.count, op.flag);
        break;
      case 4:
        pad.setIdRange(op.first, op.count, op.world);
        break;
      default:
        break;
    }
}

using Case = std::tuple<IsolationMode, SpadScope>;

class SpadFingerprint : public ::testing::TestWithParam<Case>
{
};

TEST_P(SpadFingerprint, MemoMatchesFreshHashAfterEveryOp)
{
    const auto [mode, scope] = GetParam();
    SpadParams p;
    p.rows = kRows;
    p.row_bytes = 8;
    p.scope = scope;
    p.mode = mode;
    p.partition_boundary = kRows / 3;

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        // The twin stands in for the tile whose miss recorded a
        // cache entry: it sees the same ops, and a hit replay
        // installs the twin's post-op fingerprint on the pad.
        stats::Group pad_stats("spad"), twin_stats("spad");
        Scratchpad pad(pad_stats, p), twin(twin_stats, p);
        ASSERT_EQ(pad.idFingerprint(), freshHash(pad));

        Rng rng(seed);
        for (int i = 0; i < 400; ++i) {
            const Op op = randomOp(rng);
            if (op.kind == 5) {
                const std::uint32_t ranges =
                    1 + static_cast<std::uint32_t>(rng.below(3));
                for (std::uint32_t r = 0; r < ranges; ++r) {
                    const Op range = randomOp(rng);
                    pad.setIdRange(range.first, range.count,
                                   range.world);
                    twin.setIdRange(range.first, range.count,
                                    range.world);
                }
                pad.installIdFingerprint(twin.idFingerprint());
            } else {
                apply(pad, op);
                apply(twin, op);
            }
            ASSERT_EQ(pad.idImage(), twin.idImage()) << "op " << i;
            ASSERT_EQ(pad.idFingerprint(), freshHash(pad))
                << "op " << i << " (kind " << op.kind << ")";
        }
    }
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    static const char *const modes[] = {"none", "partition", "id_based"};
    const auto [mode, scope] = info.param;
    return std::string(modes[static_cast<int>(mode)]) +
           (scope == SpadScope::local ? "_local" : "_global");
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SpadFingerprint,
    ::testing::Combine(::testing::Values(IsolationMode::none,
                                         IsolationMode::partition,
                                         IsolationMode::id_based),
                       ::testing::Values(SpadScope::local,
                                         SpadScope::global)),
    caseName);

/** Every tile's (scratchpad, accumulator) fingerprints, fresh. */
std::vector<std::uint64_t>
tileHashes(Soc &soc)
{
    std::vector<std::uint64_t> out;
    for (std::uint32_t c = 0; c < soc.params().tiles; ++c) {
        NpuCore &core = soc.npu().core(c);
        out.push_back(freshHash(core.scratchpad()));
        out.push_back(freshHash(core.accumulator()));
    }
    return out;
}

/** Every tile's memoized fingerprints. */
std::vector<std::uint64_t>
tileMemos(Soc &soc)
{
    std::vector<std::uint64_t> out;
    for (std::uint32_t c = 0; c < soc.params().tiles; ++c) {
        NpuCore &core = soc.npu().core(c);
        out.push_back(core.scratchpad().idFingerprint());
        out.push_back(core.accumulator().idFingerprint());
    }
    return out;
}

/**
 * Alternating secure and normal tasks on one tile: each memoized op
 * flips wordline IDs, so a hit that installed a stale fingerprint
 * (say, the pre-op one) would disagree with the image it left.
 * After every op of a replayed run the tile's memoized fingerprints
 * must equal fresh hashes, and both must equal the cache-off run's.
 */
TEST(TimingCacheFingerprint, HitInstallsTheCacheOffFingerprints)
{
    if (!TimingCache::enabled())
        GTEST_SKIP() << "SNPU_TIMING_CACHE=0 in the environment";
    TimingCache &cache = TimingCache::global();
    cache.clear();

    struct Run
    {
        std::vector<std::vector<std::uint64_t>> fresh;
        std::vector<std::vector<std::uint64_t>> memo;
        std::uint64_t hits = 0;
    };
    auto one = [&cache](bool use_cache) {
        SystemOverrides o;
        o.model_scale = 64;
        auto soc = buildSoc(SystemKind::snpu, o);
        TaskRunner runner(*soc);
        Run run;
        const std::uint64_t hits0 = cache.hits();
        const std::pair<ModelId, World> steps[] = {
            {ModelId::mobilenet, World::secure},
            {ModelId::yololite, World::normal},
            {ModelId::mobilenet, World::secure},
            {ModelId::resnet, World::normal},
        };
        for (const auto &[model, world] : steps) {
            NpuTask task = NpuTask::fromModel(model, world);
            task.model = task.model.scaled(64);
            RunOptions opts;
            opts.use_timing_cache = use_cache;
            const RunResult res = runner.run(task, opts);
            EXPECT_TRUE(res.ok()) << res.error();
            run.fresh.push_back(tileHashes(*soc));
            run.memo.push_back(tileMemos(*soc));
        }
        run.hits = cache.hits() - hits0;
        return run;
    };

    const Run off = one(false);
    const Run miss = one(true);
    const Run hit = one(true);
    ASSERT_EQ(hit.hits, 4u) << "every op of the third run must hit";
    // The sequence really moves the ID image at every step.
    for (std::size_t i = 1; i < off.fresh.size(); ++i)
        EXPECT_NE(off.fresh[i], off.fresh[i - 1]) << "step " << i;

    EXPECT_EQ(off.memo, off.fresh);
    EXPECT_EQ(miss.fresh, off.fresh);
    EXPECT_EQ(miss.memo, off.fresh);
    EXPECT_EQ(hit.fresh, off.fresh);
    EXPECT_EQ(hit.memo, off.fresh);
}

/**
 * A context-flush hit installs the post-flush fingerprints it
 * recorded. Its key covers the pre-flush image, so two tiles whose
 * images differ only beyond the flushed rows (where the flush leaves
 * them alone) must not share an entry: each must end with memoized
 * fingerprints equal to fresh hashes, and the second SoC with each
 * image must hit.
 */
TEST(TimingCacheFingerprint, FlushHitInstallsTheFreshFingerprints)
{
    if (!TimingCache::enabled())
        GTEST_SKIP() << "SNPU_TIMING_CACHE=0 in the environment";
    TimingCache &cache = TimingCache::global();
    cache.clear();
    constexpr std::uint32_t live_rows = 128;

    // @p secure_first: start of a secure run of rows, partly beyond
    // the flushed ones.
    auto flushOnce = [&cache](std::uint32_t secure_first) {
        SystemOverrides o;
        o.model_scale = 64;
        auto soc = buildSoc(SystemKind::snpu, o);
        MemoizedExec exec(*soc);
        Scratchpad &spad = soc->npu().core(0).scratchpad();
        spad.setIdRange(secure_first, 256, World::secure);
        const Addr save_area =
            soc->mem().map().npuArena(World::normal).base + (16u << 20);
        const std::uint64_t hits0 = cache.hits();
        exec.contextFlush(0, 0, live_rows, save_area);
        EXPECT_EQ(spad.idState(live_rows - 1), World::normal);
        EXPECT_EQ(tileMemos(*soc), tileHashes(*soc));
        return std::make_pair(cache.hits() - hits0, tileHashes(*soc));
    };

    const auto miss_a = flushOnce(64);
    const auto hit_a = flushOnce(64);
    const auto miss_b = flushOnce(96);
    const auto hit_b = flushOnce(96);
    EXPECT_EQ(miss_a.first, 0u);
    EXPECT_EQ(hit_a.first, 1u);
    EXPECT_EQ(miss_b.first, 0u) << "the key must cover the ID image";
    EXPECT_EQ(hit_b.first, 1u);
    EXPECT_EQ(hit_a.second, miss_a.second);
    EXPECT_EQ(hit_b.second, miss_b.second);
    EXPECT_NE(miss_a.second, miss_b.second);
}

TEST(SpadConfigFingerprint, SetModeMatchesAFreshPad)
{
    struct Config
    {
        IsolationMode mode;
        std::uint32_t boundary;
    };
    const Config configs[] = {{IsolationMode::id_based, 0},
                              {IsolationMode::partition, kRows / 4},
                              {IsolationMode::partition, kRows / 2},
                              {IsolationMode::none, 0},
                              {IsolationMode::id_based, 0}};
    SpadParams p;
    p.rows = kRows;
    p.row_bytes = 8;
    stats::Group pad_stats("spad");
    Scratchpad pad(pad_stats, p);
    std::set<std::uint64_t> seen;
    for (const Config &c : configs) {
        pad.setMode(c.mode, c.boundary);
        SpadParams fp = p;
        fp.mode = c.mode;
        fp.partition_boundary = c.boundary;
        stats::Group fresh_stats("fresh");
        const Scratchpad fresh(fresh_stats, fp);
        EXPECT_EQ(pad.configFingerprint(), fresh.configFingerprint());
        seen.insert(pad.configFingerprint());
    }
    EXPECT_EQ(seen.size(), 4u) << "four distinct configurations";
}

} // namespace
} // namespace snpu
