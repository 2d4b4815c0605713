/**
 * @file
 * Tests for the layer-timing memoization cache: replay parity (a
 * warm-cache run must reproduce a live run's registry JSON byte for
 * byte, across every registered protection backend) and the
 * invalidation contract (an armed fault injector or an attached
 * tracer forces live execution; a warm cache never leaks into such
 * runs).
 *
 * A cache miss runs the op live and additionally records it; the
 * recording is observation-only (delta capture around the stats
 * tree). A cold-cache run is therefore the same execution a
 * cache-off (`SNPU_TIMING_CACHE=0`) run performs — the env-level A/B
 * lives in CI on the serve_throughput bench — so comparing a
 * cold-cache run against a warm-cache run exercises exactly the
 * replay machinery the cache-on/cache-off contract depends on.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/systems.hh"
#include "core/timing_cache.hh"
#include "memo_task.hh"
#include "serve/core_scheduler.hh"
#include "sim/fault_injector.hh"
#include "sim/trace.hh"

namespace snpu
{
namespace
{

NpuTask
smallTask(ModelId id, int priority)
{
    NpuTask task =
        NpuTask::fromModel(id, World::normal, priority);
    task.model = task.model.scaled(64);
    return task;
}

std::vector<ExecStream>
parityStreams()
{
    // Two tiles' worth of repeated work: the same segments execute
    // many times, so a warm second run replays almost everything.
    const ModelId models[] = {ModelId::mobilenet, ModelId::yololite,
                              ModelId::resnet};
    std::vector<ExecStream> streams;
    for (std::uint32_t s = 0; s < 3; ++s) {
        ExecStream stream;
        stream.task = smallTask(models[s], static_cast<int>(s));
        stream.arrivals = {static_cast<Tick>(s) * 30000,
                           static_cast<Tick>(s) * 30000 + 300000};
        streams.push_back(stream);
    }
    return streams;
}

struct RunDump
{
    std::string registry_json;
    Tick makespan = 0;
};

/** The system kind that natively carries @p backend. */
SystemKind
kindFor(const std::string &backend)
{
    if (backend == "guarder")
        return SystemKind::snpu;
    if (backend == "iommu")
        return SystemKind::trustzone_npu;
    return SystemKind::normal_npu;
}

RunDump
runOnce(const std::string &backend, SchedPolicy policy)
{
    SystemOverrides o;
    o.protection = backend;
    o.model_scale = 64;
    auto soc = buildSoc(kindFor(backend), o);
    NCoreScheduler sched(*soc, policy, 2);
    NSchedResult res = sched.run(parityStreams());
    EXPECT_TRUE(res.ok()) << res.error();
    RunDump dump;
    std::ostringstream os;
    soc->registry().dumpJson(os);
    dump.registry_json = os.str();
    dump.makespan = res.makespan;
    return dump;
}

/**
 * The configuration fingerprint seeds the boot images
 * (makeBootChain), so it must not move when a field it hashes
 * becomes a constant: every golden boot measurement hangs on it.
 */
TEST(TimingCache, ConfigFingerprintIsPinned)
{
    EXPECT_EQ(socConfigFingerprint(SocParams{}), 0x33dafa4ba72980d3u);
    EXPECT_EQ(socConfigFingerprint(makeSystem(SystemKind::normal_npu)),
              0x8610a12950ef3f1au);
    EXPECT_EQ(socConfigFingerprint(makeSystem(SystemKind::trustzone_npu)),
              0xd650c8bc2db36c1bu);
}

/**
 * Cache-off vs cache-on registry parity across every registered
 * protection backend, through MemoizedExec::run on a one-task tile
 * (the serving scheduler, the other front end, cannot host the
 * IOMMU). Three fresh SoCs run the same task: live with the cache
 * off, live-and-record (miss), and replayed (hit). All three must
 * leave the registry — every stat under the SoC root —
 * byte-identical.
 */
TEST(TimingCache, CacheOffMissAndHitRegistryJsonAgreePerBackend)
{
    if (!TimingCache::enabled())
        GTEST_SKIP() << "SNPU_TIMING_CACHE=0 in the environment";

    for (const char *backend :
         {"passthrough", "iommu", "guarder", "crypto"}) {
        TimingCache &cache = TimingCache::global();
        cache.clear();

        auto one = [&](bool use_cache) {
            SystemOverrides o;
            o.protection = backend;
            o.model_scale = 64;
            auto soc = buildSoc(kindFor(backend), o);
            MemoizedExec memo(*soc);
            NpuTask task = NpuTask::fromModel(ModelId::mobilenet);
            task.model = task.model.scaled(64);
            SCOPED_TRACE(backend);
            const Tick cycles =
                runTaskOnTile0(*soc, task, use_cache ? &memo : nullptr);
            std::ostringstream os;
            soc->registry().dumpJson(os);
            return std::make_pair(cycles, os.str());
        };

        const auto off = one(false);
        const auto miss = one(true);
        const std::uint64_t hits_before = cache.hits();
        const auto hit = one(true);
        EXPECT_GT(cache.hits(), hits_before)
            << backend << ": third run never hit the cache";

        EXPECT_EQ(off.first, miss.first) << backend;
        EXPECT_EQ(off.second, miss.second) << backend;
        EXPECT_EQ(miss.first, hit.first) << backend;
        EXPECT_EQ(miss.second, hit.second) << backend;
    }
}

/**
 * Replay parity on the serving scheduler for every backend the
 * serving path supports: a run that replays from a warm cache must
 * reproduce the live run's registry JSON byte for byte and report
 * the identical makespan. (The TrustZone IOMMU strawman is not
 * serving-capable — it has no per-stream VA provisioning — so it is
 * covered by the one-task leg above instead.)
 */
TEST(TimingCache, WarmReplayMatchesLiveRegistryJsonPerBackend)
{
    if (!TimingCache::enabled())
        GTEST_SKIP() << "SNPU_TIMING_CACHE=0 in the environment";

    for (const char *backend : {"passthrough", "guarder", "crypto"}) {
        TimingCache &cache = TimingCache::global();
        cache.clear();

        const RunDump live = runOnce(backend, SchedPolicy::id_based);
        const std::uint64_t hits_before = cache.hits();

        const RunDump warm = runOnce(backend, SchedPolicy::id_based);
        EXPECT_GT(cache.hits(), hits_before)
            << backend << ": warm run never hit the cache";

        EXPECT_EQ(live.makespan, warm.makespan) << backend;
        EXPECT_EQ(live.registry_json, warm.registry_json) << backend;
    }
}

/**
 * The context-switch flush path is memoized too: flushing policies
 * must satisfy the same parity contract as id-based isolation.
 */
TEST(TimingCache, FlushPolicyReplayParity)
{
    if (!TimingCache::enabled())
        GTEST_SKIP() << "SNPU_TIMING_CACHE=0 in the environment";

    for (SchedPolicy policy :
         {SchedPolicy::flush_fine, SchedPolicy::flush_coarse}) {
        TimingCache::global().clear();
        const RunDump live = runOnce("guarder", policy);
        const RunDump warm = runOnce("guarder", policy);
        EXPECT_EQ(live.makespan, warm.makespan);
        EXPECT_EQ(live.registry_json, warm.registry_json);
    }
}

/**
 * An armed fault injector must force live execution: injected
 * faults have to land on a real run, and a warm cache must not leak
 * replayed timing into a faulted experiment.
 */
TEST(TimingCache, ArmedFaultInjectorBypassesTheCache)
{
    if (!TimingCache::enabled())
        GTEST_SKIP() << "SNPU_TIMING_CACHE=0 in the environment";

    TimingCache &cache = TimingCache::global();
    cache.clear();

    // Warm the cache so a leak would have entries to replay.
    runOnce("guarder", SchedPolicy::id_based);

    const std::uint64_t hits0 = cache.hits();
    const std::uint64_t bypass0 = cache.bypasses();

    SystemOverrides o;
    o.protection = "guarder";
    o.model_scale = 64;
    auto soc = buildSoc(SystemKind::snpu, o);
    FaultInjector inj; // armed presence is what matters
    soc->armFaults(&inj);
    NCoreScheduler sched(*soc, SchedPolicy::id_based, 2);
    NSchedResult res = sched.run(parityStreams());
    ASSERT_TRUE(res.ok()) << res.error();

    EXPECT_GT(cache.bypasses(), bypass0);
    EXPECT_EQ(cache.hits(), hits0)
        << "a faulted run consulted the cache";
}

/** An attached tracer bypasses too: records cannot be replayed. */
TEST(TimingCache, AttachedTracerBypassesTheCache)
{
    if (!TimingCache::enabled())
        GTEST_SKIP() << "SNPU_TIMING_CACHE=0 in the environment";

    TimingCache &cache = TimingCache::global();
    cache.clear();
    runOnce("guarder", SchedPolicy::id_based);

    const std::uint64_t hits0 = cache.hits();
    const std::uint64_t bypass0 = cache.bypasses();

    SystemOverrides o;
    o.protection = "guarder";
    o.model_scale = 64;
    auto soc = buildSoc(SystemKind::snpu, o);
    MemoryTraceSink sink;
    soc->attachTrace(&sink);
    NCoreScheduler sched(*soc, SchedPolicy::id_based, 2);
    NSchedResult res = sched.run(parityStreams());
    ASSERT_TRUE(res.ok()) << res.error();

    EXPECT_GT(cache.bypasses(), bypass0);
    EXPECT_EQ(cache.hits(), hits0)
        << "a traced run consulted the cache";
    EXPECT_FALSE(sink.records.empty());
}

/**
 * Faulted results are independent of the cache's warmth: the same
 * fault plan produces the same outcome whether the global cache is
 * cold or warmed by unfaulted runs — the bypass is total, not
 * partial.
 */
TEST(TimingCache, FaultedRunsUnchangedByCacheWarmth)
{
    auto faulted = [] {
        SystemOverrides o;
        o.protection = "guarder";
        o.model_scale = 64;
        auto soc = buildSoc(SystemKind::snpu, o);
        FaultPlan plan;
        plan.seed = 13;
        FaultInjector inj(plan);
        soc->armFaults(&inj);
        NCoreScheduler sched(*soc, SchedPolicy::id_based, 2);
        NSchedResult res = sched.run(parityStreams());
        EXPECT_TRUE(res.ok()) << res.error();
        std::ostringstream os;
        soc->registry().dumpJson(os);
        return std::make_pair(res.makespan, os.str());
    };

    TimingCache::global().clear();
    const auto cold = faulted();

    runOnce("guarder", SchedPolicy::id_based); // warm the cache
    const auto warm = faulted();

    EXPECT_EQ(cold.first, warm.first);
    EXPECT_EQ(cold.second, warm.second);
}

} // namespace
} // namespace snpu
