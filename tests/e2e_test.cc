/**
 * @file
 * End-to-end integration tests: the full monitor launch pipeline
 * driving real execution, and concurrent secure/normal tenants on
 * separate tiles with the isolation counters checked afterwards.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/soc.hh"
#include "core/task_runner.hh"
#include "tee/monitor/npu_monitor.hh"

namespace snpu
{
namespace
{

TEST(EndToEnd, MonitorLaunchedProgramExecutes)
{
    SocParams params = makeSystem(SystemKind::snpu);
    params.timing_only = false; // full functional data path
    Soc soc(params);
    TaskRunner runner(soc);

    // The user's workload, compiled for the secure world.
    NpuTask task = NpuTask::fromModel(ModelId::yololite, World::secure);
    task.model = task.model.scaled(32);

    SecureTask secure;
    secure.program = std::make_shared<const NpuProgram>(runner.compile(task));
    secure.expected_measurement = CodeVerifier::measure(*secure.program);
    secure.topology = NocTopology{1, 1};
    secure.proposed_cores = {2};

    std::vector<std::uint8_t> model(1024, 0x42);
    AesBlock iv{};
    Digest mac{};
    secure.encrypted_model = std::make_shared<const std::vector<std::uint8_t>>(
        soc.monitor().verifier().encryptModel(model, iv, mac));
    secure.model_mac = mac;
    secure.model_iv = iv;

    ASSERT_NE(soc.monitor().submit(secure), 0u);
    LaunchResult launch = soc.monitor().launchNext();
    ASSERT_TRUE(launch.ok()) << launch.reason();
    ASSERT_EQ(launch.cores[0], 2u);
    EXPECT_EQ(soc.npu().core(2).idState(), World::secure);

    // Execute the *monitor-wrapped* loadable program: its prologue
    // sets the ID state, the user code runs, the epilogue scrubs.
    RunOptions opts;
    opts.core = 2;
    RunResult run = runner.run(task, opts);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_GT(run.cycles, 0u);
    EXPECT_GT(run.macs, 0u);

    // Wrapped program itself also runs cleanly (prologue/epilogue).
    ExecResult wrapped =
        soc.npu().core(2).run(run.end, launch.loadable[0]);
    EXPECT_TRUE(wrapped.ok()) << wrapped.error();

    // Teardown releases the core and scrubs the scratchpad.
    ASSERT_TRUE(soc.monitor().finish(launch.task_id));
    EXPECT_EQ(soc.npu().core(2).idState(), World::normal);
    for (std::uint32_t row = 0; row < 64; ++row)
        EXPECT_EQ(soc.npu().core(2).scratchpad().idState(row),
                  World::normal);
}

TEST(EndToEnd, ConcurrentWorldsStayIsolated)
{
    Soc soc(makeSystem(SystemKind::snpu));
    TaskRunner runner(soc);

    // Secure tenant on tile 0, normal tenant on tile 1; both full
    // workloads through the same shared memory system.
    NpuTask secure_task =
        NpuTask::fromModel(ModelId::mobilenet, World::secure);
    secure_task.model = secure_task.model.scaled(16);
    NpuTask normal_task =
        NpuTask::fromModel(ModelId::yololite, World::normal);
    normal_task.model = normal_task.model.scaled(16);

    RunOptions secure_opts;
    secure_opts.core = 0;
    RunResult secure_res = runner.run(secure_task, secure_opts);
    ASSERT_TRUE(secure_res.ok()) << secure_res.error();

    RunOptions normal_opts;
    normal_opts.core = 1;
    RunResult normal_res = runner.run(normal_task, normal_opts);
    ASSERT_TRUE(normal_res.ok()) << normal_res.error();

    // Neither run tripped a violation, and the memory partition saw
    // no rejected accesses.
    EXPECT_EQ(secure_res.error(), "");
    EXPECT_EQ(soc.mem().partitionViolations(), 0u);

    // The normal tenant cannot read the secure tenant's scratchpad.
    Scratchpad &spad0 = soc.npu().core(0).scratchpad();
    int readable = 0;
    for (std::uint32_t row = 0; row < 128; ++row) {
        if (spad0.read(World::normal, row, nullptr) == SpadStatus::ok)
            ++readable;
    }
    EXPECT_EQ(readable, 0) << "normal world read secure rows";
}

TEST(EndToEnd, GuarderWindowsSurviveRealWorkload)
{
    // After a full run, the guarder's denial counter is still zero:
    // the compiler's every access stayed within the provisioned
    // windows (a compiler/provisioning consistency check).
    Soc soc(makeSystem(SystemKind::snpu));
    TaskRunner runner(soc);
    NpuTask task = NpuTask::fromModel(ModelId::googlenet);
    task.model = task.model.scaled(8);
    RunResult res = runner.run(task);
    ASSERT_TRUE(res.ok()) << res.error();
    NpuGuarder *g = soc.protection(0).asGuarder();
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->denyCount(), 0u);
    EXPECT_GT(g->checkCount(), 0u);
}

TEST(EndToEnd, TrustzoneIommuMapsSurviveRealWorkload)
{
    Soc soc(makeSystem(SystemKind::trustzone_npu));
    TaskRunner runner(soc);
    NpuTask task = NpuTask::fromModel(ModelId::mobilenet);
    task.model = task.model.scaled(8);
    RunResult res = runner.run(task);
    ASSERT_TRUE(res.ok()) << res.error();
    auto *iommu = dynamic_cast<Iommu *>(&soc.protection(0));
    ASSERT_NE(iommu, nullptr);
    EXPECT_EQ(iommu->denyCount(), 0u);
    EXPECT_GT(iommu->walks(), 0u);
    EXPECT_GT(iommu->tlb().hits(), iommu->walks());
}

TEST(EndToEnd, StatsDumpContainsAllSubsystems)
{
    Soc soc(makeSystem(SystemKind::snpu));
    TaskRunner runner(soc);
    NpuTask task = NpuTask::fromModel(ModelId::yololite);
    task.model = task.model.scaled(32);
    ASSERT_TRUE(runner.run(task).ok());

    std::ostringstream os;
    soc.stats().dump(os);
    const std::string dump = os.str();
    for (const char *needle :
         {"dram_bytes", "l2_hits", "dma_packets", "protection0.checks",
          "spad_reads", "noc_packets", "npu_instructions"}) {
        EXPECT_NE(dump.find(needle), std::string::npos)
            << "missing stat " << needle;
    }
}

} // namespace
} // namespace snpu
