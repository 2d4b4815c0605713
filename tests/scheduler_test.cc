/**
 * @file
 * Tests for the one-core schedule behind Table I: the comparison of
 * isolation mechanisms under multi-tasking — a periodic
 * high-priority task preempting a long background task, both pinned
 * to core 0 of the N-core scheduler. Stream 0 is the background
 * task, stream 1 the periodic one.
 */

#include <gtest/gtest.h>

#include "core/systems.hh"
#include "serve/core_scheduler.hh"
#include "sim/logging.hh"

namespace snpu
{
namespace
{

NSchedResult
runPolicy(SchedPolicy policy, std::uint32_t coarse = 5)
{
    ExecStream background;
    background.task = NpuTask::fromModel(ModelId::bert, World::normal, 0);
    background.task.model = background.task.model.scaled(8);
    background.arrivals = {0};
    background.pinned_core = 0;

    ExecStream periodic;
    periodic.task =
        NpuTask::fromModel(ModelId::yololite, World::secure, 10);
    periodic.task.model = periodic.task.model.scaled(8);
    for (Tick i = 0; i < 8; ++i)
        periodic.arrivals.push_back(i * 800000);
    periodic.pinned_core = 0;

    auto soc = buildSoc(SystemKind::snpu);
    NCoreScheduler sched(*soc, policy, 1, coarse);
    NSchedResult res = sched.run({background, periodic});
    EXPECT_TRUE(res.ok()) << schedPolicyName(policy) << ": "
                          << res.error();
    return res;
}

Tick
backgroundCompletion(const NSchedResult &res)
{
    return res.streams[0].completion;
}

Tick
worstLatency(const NSchedResult &res)
{
    return res.streams[1].worst_latency;
}

TEST(Scheduler, AllPoliciesComplete)
{
    for (SchedPolicy policy :
         {SchedPolicy::flush_fine, SchedPolicy::flush_coarse,
          SchedPolicy::partition, SchedPolicy::id_based}) {
        NSchedResult res = runPolicy(policy);
        ASSERT_TRUE(res.ok());
        EXPECT_GT(res.makespan, 0u);
        EXPECT_GT(backgroundCompletion(res), 0u);
        EXPECT_GT(worstLatency(res), 0u);
        EXPECT_GT(res.utilization, 0.0);
        EXPECT_LE(res.utilization, 1.0);
    }
}

TEST(Scheduler, FineFlushPaysOverheadIdBasedDoesNot)
{
    NSchedResult fine = runPolicy(SchedPolicy::flush_fine);
    NSchedResult idb = runPolicy(SchedPolicy::id_based);
    EXPECT_GT(fine.flush_overhead, 0u);
    EXPECT_EQ(idb.flush_overhead, 0u);
    EXPECT_GT(fine.makespan, idb.makespan);
}

TEST(Scheduler, CoarseFlushHurtsSlaButCostsLessThanFine)
{
    NSchedResult coarse = runPolicy(SchedPolicy::flush_coarse, 8);
    NSchedResult fine = runPolicy(SchedPolicy::flush_fine);
    NSchedResult idb = runPolicy(SchedPolicy::id_based);

    // The high-priority task waits behind the amortization window
    // (Table I: coarse flush = poor SLA)...
    EXPECT_GT(worstLatency(coarse), worstLatency(idb));
    EXPECT_GT(worstLatency(coarse), worstLatency(fine));
    // ...in exchange for fewer flushes than fine-grained switching.
    EXPECT_LT(coarse.flush_overhead, fine.flush_overhead);
}

TEST(Scheduler, IdBasedSlaMatchesFineFlushWithoutItsCost)
{
    NSchedResult fine = runPolicy(SchedPolicy::flush_fine);
    NSchedResult idb = runPolicy(SchedPolicy::id_based);
    // Both switch eagerly; sNPU just does not pay for it. Allow a
    // few percent of scheduling-alignment jitter.
    EXPECT_LE(worstLatency(idb), worstLatency(fine) * 105 / 100);
}

TEST(Scheduler, PartitionSlowerThanIdBasedForCapacitySensitiveNets)
{
    // The BERT background is scratchpad-capacity sensitive: half
    // the rows means more weight reloads (the Fig 15 effect).
    NSchedResult part = runPolicy(SchedPolicy::partition);
    NSchedResult idb = runPolicy(SchedPolicy::id_based);
    EXPECT_GT(backgroundCompletion(part), backgroundCompletion(idb));
    EXPECT_LT(part.utilization, idb.utilization + 1e-9);
}

TEST(Scheduler, UtilizationOrdering)
{
    // sNPU keeps the core doing useful MACs the largest fraction of
    // the time among the secure policies.
    NSchedResult fine = runPolicy(SchedPolicy::flush_fine);
    NSchedResult part = runPolicy(SchedPolicy::partition);
    NSchedResult idb = runPolicy(SchedPolicy::id_based);
    EXPECT_GE(idb.utilization, fine.utilization);
    EXPECT_GE(idb.utilization, part.utilization);
}

TEST(Scheduler, ZeroCoarseIntervalIsFatal)
{
    auto soc = buildSoc(SystemKind::snpu);
    EXPECT_THROW(NCoreScheduler(*soc, SchedPolicy::flush_coarse, 1, 0),
                 FatalError);
}

} // namespace
} // namespace snpu
