/**
 * @file
 * Tests for the serving stack: the generalized N-core scheduler and
 * the SnpuServer engine layered on top of it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "core/systems.hh"
#include "core/task_runner.hh"
#include "serve/arrivals.hh"
#include "serve/core_scheduler.hh"
#include "serve/server.hh"
#include "sim/random.hh"
#include "sim/trace.hh"
#include "tee/monitor/npu_monitor.hh"

namespace snpu
{
namespace
{

NpuTask
smallTask(ModelId id, World world = World::normal, int priority = 0)
{
    NpuTask task = NpuTask::fromModel(id, world, priority);
    task.model = task.model.scaled(64);
    return task;
}

// --- N-core scheduler ----------------------------------------------

/**
 * Run @p a pinned to tile 0 and @p b pinned to tile 1, one request
 * each, under a two-way static partition: both tiles share the SoC's
 * DRAM and L2, so contention emerges from the shared memory model.
 * Models are scaled by 8 rather than 64 so the pair overlaps long
 * enough for contention to show.
 */
NSchedResult
runPinnedPair(Soc &soc, ModelId a, World world_a, ModelId b,
              World world_b)
{
    std::vector<ExecStream> streams(2);
    const ModelId models[] = {a, b};
    const World worlds[] = {world_a, world_b};
    for (std::uint32_t s = 0; s < 2; ++s) {
        streams[s].task = NpuTask::fromModel(models[s], worlds[s]);
        streams[s].task.model = streams[s].task.model.scaled(8);
        streams[s].arrivals = {0};
        streams[s].pinned_core = static_cast<std::int32_t>(s);
    }
    NCoreScheduler sched(soc, SchedPolicy::partition, 2);
    return sched.run(streams);
}

/** Both streams of a pinned pair run to completion, and the makespan
 *  is the later of the two. */
TEST(NCoreScheduler, PinnedPairBothComplete)
{
    auto soc = buildSoc(SystemKind::snpu);
    NSchedResult res =
        runPinnedPair(*soc, ModelId::yololite, World::secure,
                      ModelId::mobilenet, World::normal);
    ASSERT_TRUE(res.ok()) << res.error();
    for (std::uint32_t s = 0; s < 2; ++s) {
        EXPECT_EQ(res.streams[s].completed, 1u);
        EXPECT_GT(res.streams[s].completion, 0u);
    }
    EXPECT_EQ(res.makespan, std::max(res.streams[0].completion,
                                     res.streams[1].completion));
}

/** Shared DRAM: each stream of a pinned pair finishes later than it
 *  does alone at the same scratchpad budget. */
TEST(NCoreScheduler, PinnedPairContentionSlowsBothVersusSolo)
{
    auto soc = buildSoc(SystemKind::snpu);
    const std::uint32_t half_rows =
        soc->npu().core(0).scratchpad().rows() / 2;
    NSchedResult res =
        runPinnedPair(*soc, ModelId::googlenet, World::normal,
                      ModelId::resnet, World::normal);
    ASSERT_TRUE(res.ok()) << res.error();

    const ModelId models[] = {ModelId::googlenet, ModelId::resnet};
    for (std::uint32_t s = 0; s < 2; ++s) {
        EXPECT_EQ(res.streams[s].completed, 1u);
        auto solo_soc = buildSoc(SystemKind::snpu);
        TaskRunner runner(*solo_soc);
        NpuTask task = NpuTask::fromModel(models[s], World::normal);
        task.model = task.model.scaled(8);
        RunOptions opts;
        opts.spad_rows_override = half_rows;
        RunResult solo = runner.run(task, opts);
        ASSERT_TRUE(solo.ok()) << solo.error();
        EXPECT_GT(res.streams[s].completion, solo.cycles)
            << task.name;
    }
    EXPECT_EQ(res.makespan, std::max(res.streams[0].completion,
                                     res.streams[1].completion));
}

/** A secure tenant next to a normal one: the tiles' protection
 *  contexts and the memory partition see no stray access. */
TEST(NCoreScheduler, PinnedCrossWorldPairTriggersNoViolations)
{
    auto soc = buildSoc(SystemKind::snpu);
    NSchedResult res = runPinnedPair(*soc, ModelId::bert, World::secure,
                                     ModelId::yololite, World::normal);
    ASSERT_TRUE(res.ok()) << res.error();
    EXPECT_EQ(res.streams[0].completed, 1u);
    EXPECT_EQ(res.streams[1].completed, 1u);
    EXPECT_EQ(soc->mem().partitionViolations(), 0u);
    EXPECT_EQ(soc->protection(0).denyCount(), 0u);
    EXPECT_EQ(soc->protection(1).denyCount(), 0u);
}

std::vector<ExecStream>
mixedPriorityStreams()
{
    // Six streams, three priority levels, staggered arrivals.
    const ModelId models[] = {ModelId::mobilenet, ModelId::yololite,
                              ModelId::resnet,    ModelId::mobilenet,
                              ModelId::yololite,  ModelId::resnet};
    std::vector<ExecStream> streams;
    for (std::uint32_t s = 0; s < 6; ++s) {
        ExecStream stream;
        stream.task = smallTask(models[s], World::normal,
                                static_cast<int>(s % 3));
        stream.arrivals = {static_cast<Tick>(s) * 20000,
                           static_cast<Tick>(s) * 20000 + 400000};
        streams.push_back(stream);
    }
    return streams;
}

/** More tiles never hurt, and low-priority streams still finish. */
TEST(NCoreScheduler, FourCoresNoStarvationAndFaster)
{
    std::vector<Tick> makespans;
    for (std::uint32_t cores : {1u, 4u}) {
        auto soc = buildSoc(SystemKind::snpu);
        NCoreScheduler sched(*soc, SchedPolicy::id_based, cores);
        NSchedResult res = sched.run(mixedPriorityStreams());
        ASSERT_TRUE(res.ok()) << res.error();
        for (const StreamOutcome &out : res.streams) {
            EXPECT_EQ(out.completed, 2u); // every request finished
            EXPECT_EQ(out.rejected, 0u);
            EXPECT_GT(out.completion, 0u);
        }
        EXPECT_GT(res.utilization, 0.0);
        EXPECT_LE(res.utilization, 1.0);
        makespans.push_back(res.makespan);
    }
    EXPECT_LE(makespans[1], makespans[0]);
}

/** Same inputs, fresh SoCs: the schedule must be reproducible. */
TEST(NCoreScheduler, DeterministicAcrossRuns)
{
    std::vector<Tick> makespans;
    for (int rep = 0; rep < 2; ++rep) {
        auto soc = buildSoc(SystemKind::snpu);
        NCoreScheduler sched(*soc, SchedPolicy::flush_fine, 4);
        NSchedResult res = sched.run(mixedPriorityStreams());
        ASSERT_TRUE(res.ok()) << res.error();
        makespans.push_back(res.makespan);
    }
    EXPECT_EQ(makespans[0], makespans[1]);
}

// --- serving engine ------------------------------------------------

std::vector<TenantSpec>
makeTenants(std::uint32_t requests, std::uint32_t capacity,
            std::uint64_t seed)
{
    std::vector<TenantSpec> tenants;
    const ModelId models[] = {ModelId::mobilenet, ModelId::yololite};
    const World worlds[] = {World::secure, World::normal};
    for (std::uint32_t t = 0; t < 2; ++t) {
        TenantSpec spec;
        spec.name = std::string(modelName(models[t])) + "_" +
                    std::to_string(t);
        spec.task = smallTask(models[t], worlds[t]);
        spec.queue_capacity = capacity;
        Rng rng(seed + t);
        spec.arrivals = poissonArrivals(rng, 200000.0, requests);
        tenants.push_back(spec);
    }
    return tenants;
}

TEST(SnpuServer, ServesAllTenantsAndReportsTails)
{
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg;
    cfg.num_cores = 2;
    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve(makeTenants(6, 8, 1));
    ASSERT_TRUE(res.ok()) << res.error();
    ASSERT_EQ(res.tenants.size(), 2u);
    for (const TenantReport &rep : res.tenants) {
        EXPECT_EQ(rep.completed, 6u);
        EXPECT_EQ(rep.rejected, 0u);
        EXPECT_GT(rep.throughput, 0.0);
        EXPECT_GT(rep.p50, 0u);
        EXPECT_LE(rep.p50, rep.p95);
        EXPECT_LE(rep.p95, rep.p99);
        EXPECT_LE(rep.p99 / 2, rep.worst_latency); // same order
        EXPECT_GT(rep.peak_queue_depth, 0u);
    }
    EXPECT_GT(res.makespan, 0u);
    EXPECT_EQ(res.cycles, res.makespan);
}

/** Each tenant's IOMMU window is mapped in full even where the slack
 *  of a neighbour's window already covers its first pages, so every
 *  request of four normal tenants on two tiles completes. */
TEST(SnpuServer, IommuTenantsOnSharedTilesCompleteEveryRequest)
{
    Soc soc(paramsForBackend("iommu"));
    ServerConfig cfg;
    cfg.num_cores = 2;
    SnpuServer server(soc, cfg);
    const ModelId models[] = {ModelId::mobilenet, ModelId::yololite};
    std::vector<TenantSpec> tenants;
    for (std::uint32_t t = 0; t < 4; ++t) {
        TenantSpec spec;
        spec.name = "tenant_" + std::to_string(t);
        spec.task = smallTask(models[t % 2]);
        spec.queue_capacity = 8;
        Rng rng(t + 1);
        spec.arrivals = poissonArrivals(rng, 200000.0, 3);
        tenants.push_back(spec);
    }
    ServeResult res = server.serve(tenants);
    ASSERT_TRUE(res.ok()) << res.error();
    for (const TenantReport &rep : res.tenants) {
        EXPECT_EQ(rep.completed, 3u) << rep.name;
        EXPECT_EQ(rep.failed, 0u) << rep.name;
    }
}

TEST(SnpuServer, SecureTenantPaysTheMonitorNormalDoesNot)
{
    auto soc = buildSoc(SystemKind::snpu);
    SnpuServer server(*soc);
    ServeResult res = server.serve(makeTenants(4, 8, 2));
    ASSERT_TRUE(res.ok()) << res.error();
    const TenantReport &secure = res.tenants[0];
    const TenantReport &normal = res.tenants[1];
    EXPECT_GT(secure.monitor_cycles, 0u);
    EXPECT_EQ(normal.monitor_cycles, 0u);
    EXPECT_EQ(res.monitor_overhead, secure.monitor_cycles);
}

/**
 * monitor_overhead is every cycle charged at dispatch: the monitor
 * launch, the attestation handshake, and each generating tenant's
 * prefill KV allocation in either world. With the per-token KV
 * charges it adds up to the tenants' monitor and KV cycles plus the
 * handshakes.
 */
TEST(SnpuServer, MonitorOverheadIsEveryDispatchCharge)
{
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg;
    cfg.num_cores = 2;
    cfg.attestation = true;
    cfg.latency_hist_max = 4.0e7;
    SnpuServer server(*soc, cfg);
    std::vector<TenantSpec> tenants(2);
    for (std::uint32_t t = 0; t < tenants.size(); ++t) {
        TenantSpec &spec = tenants[t];
        spec.name = t == 0 ? "sec" : "pub";
        spec.task.name = spec.name;
        spec.task.world = t == 0 ? World::secure : World::normal;
        spec.arrivals = {0, 0};
        spec.queue_capacity = 2;
        spec.decode_tokens = 4;
        spec.decoder = makeDecoder(DecoderId::tinygpt);
    }
    const ServeResult res = server.serve(tenants);
    ASSERT_TRUE(res.ok()) << res.error();

    Tick charged = res.attest_overhead;
    for (const TenantReport &rep : res.tenants) {
        EXPECT_EQ(rep.completed, 2u) << rep.name;
        EXPECT_GT(rep.kv_alloc_cycles, 0u) << rep.name;
        charged += rep.monitor_cycles + rep.kv_alloc_cycles;
    }
    EXPECT_GT(res.attest_overhead, 0u);
    EXPECT_GT(res.token_alloc_overhead, 0u);
    EXPECT_GT(res.monitor_overhead, res.tenants[0].monitor_cycles);
    EXPECT_EQ(res.monitor_overhead + res.token_alloc_overhead, charged);
}

/**
 * Scans the monitor's queue on every serve trace record (each
 * admission emits one) and keeps the program handle of every secure
 * task it finds queued.
 */
class QueueProbe : public TraceSink
{
  public:
    explicit QueueProbe(Soc &soc)
        : TraceSink(traceMask(TraceCategory::serve)), soc(soc)
    {
    }

    void
    record(Tick, TraceCategory, const std::string &,
           const std::string &) override
    {
        // Task ids are handed out from 1; a window submits far fewer
        // than this bound.
        for (std::uint64_t id = 1; id <= 256; ++id) {
            if (const SecureTask *task = soc.monitor().queue().find(id)) {
                ids.insert(id);
                programs.insert(task->program.get());
                ciphertexts.insert(task->encrypted_model.get());
            }
        }
    }

    std::set<std::uint64_t> ids;
    std::set<const NpuProgram *> programs;
    std::set<const std::vector<std::uint8_t> *> ciphertexts;

  private:
    Soc &soc;
};

/** Admitted secure requests queue references to one template: every
 *  queued task of a tenant — across windows on separate SoCs of one
 *  configuration — points at the same program and ciphertext. */
TEST(SnpuServer, AdmittedSecureRequestsShareTheTemplate)
{
    std::vector<std::unique_ptr<QueueProbe>> probes;
    for (int window = 0; window < 2; ++window) {
        auto soc = buildSoc(SystemKind::snpu);
        probes.push_back(std::make_unique<QueueProbe>(*soc));
        soc->attachTrace(probes.back().get());
        SnpuServer server(*soc);
        ServeResult res = server.serve(makeTenants(4, 8, 2));
        ASSERT_TRUE(res.ok()) << res.error();
        EXPECT_EQ(res.tenants[0].completed, 4u);
        soc->attachTrace(nullptr);
    }
    for (const auto &probe : probes) {
        EXPECT_EQ(probe->ids.size(), 4u);
        ASSERT_EQ(probe->programs.size(), 1u);
        ASSERT_EQ(probe->ciphertexts.size(), 1u);
        EXPECT_NE(*probe->programs.begin(), nullptr);
        EXPECT_NE(*probe->ciphertexts.begin(), nullptr);
    }
    EXPECT_EQ(probes[0]->programs, probes[1]->programs);
    EXPECT_EQ(probes[0]->ciphertexts, probes[1]->ciphertexts);
}

TEST(SnpuServer, DeterministicForFixedSeed)
{
    std::vector<std::string> dumps;
    for (int rep = 0; rep < 2; ++rep) {
        auto soc = buildSoc(SystemKind::snpu);
        ServerConfig cfg;
        cfg.num_cores = 2;
        SnpuServer server(*soc, cfg);
        ServeResult res = server.serve(makeTenants(6, 8, 3));
        ASSERT_TRUE(res.ok()) << res.error();
        std::ostringstream os;
        os << res.makespan << " " << res.flush_overhead << " "
           << res.monitor_overhead << "\n";
        for (const TenantReport &rep : res.tenants)
            os << rep.name << " " << rep.completed << " "
               << rep.rejected << " " << rep.p50 << " " << rep.p95
               << " " << rep.p99 << " " << rep.worst_latency << " "
               << rep.monitor_cycles << "\n";
        dumps.push_back(os.str());
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(SnpuServer, BoundedQueueRejectsBursts)
{
    auto soc = buildSoc(SystemKind::snpu);
    SnpuServer server(*soc);

    // Every request of a 12-deep burst lands at once against a
    // single-slot queue: all but the one in service must bounce.
    std::vector<TenantSpec> tenants = makeTenants(4, 8, 4);
    tenants[1].queue_capacity = 1;
    tenants[1].arrivals.assign(12, Tick{0});

    ServeResult res = server.serve(tenants);
    ASSERT_TRUE(res.ok()) << res.error();
    const TenantReport &bursty = res.tenants[1];
    EXPECT_GT(bursty.rejected, 0u);
    EXPECT_EQ(bursty.completed + bursty.rejected, 12u);
    EXPECT_EQ(bursty.peak_queue_depth, 1u);
    // The well-behaved tenant is unaffected by its neighbor's drops.
    EXPECT_EQ(res.tenants[0].completed, 4u);
    EXPECT_EQ(res.tenants[0].rejected, 0u);
}

TEST(SnpuServer, ValidatesItsInputs)
{
    {
        auto soc = buildSoc(SystemKind::snpu);
        SnpuServer server(*soc);
        ServeResult res = server.serve({});
        EXPECT_FALSE(res.ok());
        EXPECT_EQ(res.code(), StatusCode::invalid_argument);
    }
    {
        // Secure tenants need the NPU Monitor.
        auto soc = buildSoc(SystemKind::normal_npu);
        SnpuServer server(*soc);
        ServeResult res = server.serve(makeTenants(2, 8, 5));
        EXPECT_FALSE(res.ok());
        EXPECT_EQ(res.code(), StatusCode::invalid_argument);
    }
    {
        // One serving window per instance.
        auto soc = buildSoc(SystemKind::snpu);
        SnpuServer server(*soc);
        ASSERT_TRUE(server.serve(makeTenants(2, 8, 6)).ok());
        ServeResult again = server.serve(makeTenants(2, 8, 6));
        EXPECT_FALSE(again.ok());
        EXPECT_EQ(again.code(), StatusCode::invalid_argument);
    }
}

TEST(Arrivals, GeneratorsAreWellFormed)
{
    Rng rng(9);
    const std::vector<Tick> poisson =
        poissonArrivals(rng, 1000.0, 64, 500);
    ASSERT_EQ(poisson.size(), 64u);
    EXPECT_GE(poisson.front(), 500u);
    for (std::size_t i = 1; i < poisson.size(); ++i)
        EXPECT_GE(poisson[i], poisson[i - 1]); // ascending

    const std::vector<Tick> periodic = periodicArrivals(250, 4, 100);
    ASSERT_EQ(periodic.size(), 4u);
    EXPECT_EQ(periodic[0], 100u);
    EXPECT_EQ(periodic[3], 850u);

    // load = tenants x service / (gap x cores), inverted.
    EXPECT_DOUBLE_EQ(meanGapForLoad(0.5, 4, 2, 1000.0), 4000.0);
}

} // namespace
} // namespace snpu
