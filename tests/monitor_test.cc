/**
 * @file
 * Tests for the NPU Monitor and its shim modules: trampoline
 * validation, trusted allocator, code verifier, secure loader route
 * checks, context setter, and the full launch pipeline.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/soc.hh"
#include "sim/stats.hh"
#include "tee/monitor/npu_monitor.hh"

namespace snpu
{
namespace
{

struct MonitorFixture : ::testing::Test
{
    MonitorFixture() : soc(makeSystem(SystemKind::snpu)) {}

    SecureTask
    benignTask(std::vector<std::uint32_t> cores = {0})
    {
        NpuProgram program;
        Instr nop;
        nop.op = Opcode::fence;
        program.code.push_back(nop);
        program.spad_rows_used = 32;
        SecureTask task;
        task.expected_measurement = CodeVerifier::measure(program);
        task.program = std::make_shared<const NpuProgram>(std::move(program));
        task.topology = NocTopology{
            static_cast<std::uint32_t>(cores.size()), 1};
        task.proposed_cores = std::move(cores);
        return task;
    }

    Soc soc;
};

TEST_F(MonitorFixture, LaunchPipelineHappyPath)
{
    soc.monitor().submit(benignTask());
    LaunchResult launch = soc.monitor().launchNext();
    ASSERT_TRUE(launch.ok()) << launch.reason();
    ASSERT_EQ(launch.loadable.size(), 1u);
    // Privileged prologue + user code + privileged epilogue.
    EXPECT_EQ(launch.loadable[0].code.size(), 3u);
    EXPECT_EQ(launch.loadable[0].code.front().op, Opcode::sec_set_id);
    EXPECT_TRUE(launch.loadable[0].code.front().privileged);
    EXPECT_EQ(launch.loadable[0].code.back().op,
              Opcode::sec_reset_spad);
    // The core is now in the secure world.
    EXPECT_EQ(soc.npu().core(0).idState(), World::secure);

    EXPECT_TRUE(soc.monitor().finish(launch.task_id));
    EXPECT_EQ(soc.npu().core(0).idState(), World::normal);
}

TEST_F(MonitorFixture, UserCodeNeverKeepsPrivilege)
{
    SecureTask task = benignTask();
    // Sneak a privileged instruction into the user code.
    Instr evil;
    evil.op = Opcode::sec_set_id;
    evil.world = World::secure;
    evil.privileged = true;
    NpuProgram program = *task.program;
    program.code.push_back(evil);
    task.expected_measurement = CodeVerifier::measure(program);
    task.program = std::make_shared<const NpuProgram>(std::move(program));

    soc.monitor().submit(task);
    LaunchResult launch = soc.monitor().launchNext();
    ASSERT_TRUE(launch.ok()) << launch.reason();
    // The loader stripped the privilege bit from user instructions.
    EXPECT_FALSE(launch.loadable[0].code[2].privileged);
}

TEST_F(MonitorFixture, MeasurementMismatchRejected)
{
    SecureTask task = benignTask();
    task.expected_measurement[0] ^= 0xff;
    soc.monitor().submit(task);
    LaunchResult launch = soc.monitor().launchNext();
    EXPECT_FALSE(launch.ok());
    EXPECT_NE(launch.reason().find("measurement"), std::string::npos);
    EXPECT_EQ(soc.monitor().rejectedLaunches(), 1u);
}

TEST_F(MonitorFixture, ModelDecryptionRoundTrip)
{
    SecureTask task = benignTask();
    std::vector<std::uint8_t> model(500);
    for (std::size_t i = 0; i < model.size(); ++i)
        model[i] = static_cast<std::uint8_t>(i ^ 0x5a);

    AesBlock iv{};
    iv[0] = 7;
    Digest mac{};
    task.encrypted_model = std::make_shared<const std::vector<std::uint8_t>>(
        soc.monitor().verifier().encryptModel(model, iv, mac));
    task.model_mac = mac;
    task.model_iv = iv;

    soc.monitor().submit(task);
    LaunchResult launch = soc.monitor().launchNext();
    ASSERT_TRUE(launch.ok()) << launch.reason();
    ASSERT_NE(launch.model_paddr, 0u);
    // The plaintext landed in secure memory.
    std::vector<std::uint8_t> out(model.size());
    soc.mem().data().read(launch.model_paddr, out.data(), out.size());
    EXPECT_EQ(out, model);
    EXPECT_EQ(soc.mem().map().worldOf(launch.model_paddr),
              World::secure);
}

TEST_F(MonitorFixture, TamperedModelRejected)
{
    SecureTask task = benignTask();
    std::vector<std::uint8_t> model(64, 0x42);
    AesBlock iv{};
    Digest mac{};
    std::vector<std::uint8_t> ciphertext =
        soc.monitor().verifier().encryptModel(model, iv, mac);
    ciphertext[10] ^= 1; // bit-flip in transit
    task.encrypted_model =
        std::make_shared<const std::vector<std::uint8_t>>(ciphertext);
    task.model_mac = mac;
    task.model_iv = iv;

    soc.monitor().submit(task);
    LaunchResult launch = soc.monitor().launchNext();
    EXPECT_FALSE(launch.ok());
    EXPECT_NE(launch.reason().find("authentication"),
              std::string::npos);
}

TEST_F(MonitorFixture, RouteIntegrityAcceptsSubMesh)
{
    // 2x2 block anchored at node 0 of the 5x2 mesh: {0,1,5,6}.
    SecureTask task = benignTask({0, 1, 5, 6});
    task.topology = NocTopology{2, 2};
    soc.monitor().submit(task);
    LaunchResult launch = soc.monitor().launchNext();
    EXPECT_TRUE(launch.ok()) << launch.reason();
    soc.monitor().finish(launch.task_id);
}

TEST_F(MonitorFixture, RouteIntegrityRejectsStrip)
{
    SecureTask task = benignTask({0, 1, 2, 3});
    task.topology = NocTopology{2, 2};
    soc.monitor().submit(task);
    LaunchResult launch = soc.monitor().launchNext();
    EXPECT_FALSE(launch.ok());
    EXPECT_NE(launch.reason().find("route"), std::string::npos);
}

TEST_F(MonitorFixture, ScratchpadOverlapAcrossTasksRejected)
{
    SecureTask first = benignTask({0});
    soc.monitor().submit(first);
    LaunchResult l1 = soc.monitor().launchNext();
    ASSERT_TRUE(l1.ok()) << l1.reason();

    // A second secure task on the same core would overlap rows.
    SecureTask second = benignTask({0});
    soc.monitor().submit(second);
    LaunchResult l2 = soc.monitor().launchNext();
    EXPECT_FALSE(l2.ok());
    EXPECT_NE(l2.reason().find("overlap"), std::string::npos);

    // After the first finishes, the core frees up.
    ASSERT_TRUE(soc.monitor().finish(l1.task_id));
    SecureTask third = benignTask({0});
    soc.monitor().submit(third);
    LaunchResult l3 = soc.monitor().launchNext();
    EXPECT_TRUE(l3.ok()) << l3.reason();
}

TEST_F(MonitorFixture, TrampolineRejectsUnknownFunction)
{
    TrampolineCall call;
    call.fn = static_cast<MonitorFn>(999);
    TrampolineResult res = soc.monitor().trampoline().invoke(call);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, 1u);
}

TEST_F(MonitorFixture, TrampolineRejectsSecureSharedWindow)
{
    TrampolineCall call;
    call.fn = MonitorFn::query_status;
    call.shared = AddrRange{soc.mem().map().secureRegion().base, 64};
    TrampolineResult res = soc.monitor().trampoline().invoke(call);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, 2u);

    // A window straddling the boundary is just as bad.
    call.shared =
        AddrRange{soc.mem().map().secureRegion().base - 32, 64};
    EXPECT_EQ(soc.monitor().trampoline().invoke(call).error, 2u);
}

TEST_F(MonitorFixture, TrampolineQueryStatusWorks)
{
    const std::uint64_t id = soc.monitor().submit(benignTask());
    TrampolineCall call;
    call.fn = MonitorFn::query_status;
    call.args[0] = id;
    TrampolineResult res = soc.monitor().trampoline().invoke(call);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.value,
              static_cast<std::uint64_t>(SecureTaskState::submitted));
}

TEST(TrustedAllocatorTest, AllocFreeCoalesce)
{
    TrustedAllocator alloc(AddrRange{0x1000, 0x10000});
    const Addr a = alloc.alloc(0x100);
    const Addr b = alloc.alloc(0x100);
    const Addr c = alloc.alloc(0x100);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(c, 0u);
    EXPECT_TRUE(alloc.free(b));
    EXPECT_TRUE(alloc.free(a));
    // Coalesced: a 0x200 block fits where a+b were.
    const Addr d = alloc.alloc(0x200);
    EXPECT_EQ(d, a);
    EXPECT_FALSE(alloc.free(0xdead));
}

TEST(TrustedAllocatorTest, ExhaustionReturnsZero)
{
    TrustedAllocator alloc(AddrRange{0x1000, 0x1000});
    EXPECT_NE(alloc.alloc(0x800), 0u);
    EXPECT_NE(alloc.alloc(0x800), 0u);
    EXPECT_EQ(alloc.alloc(0x40), 0u);
}

TEST(TrustedAllocatorTest, SpadReservationOverlapDetected)
{
    TrustedAllocator alloc(AddrRange{0x1000, 0x1000});
    EXPECT_TRUE(alloc.reserveSpad(1, 0, 0, 100));
    EXPECT_FALSE(alloc.reserveSpad(2, 0, 50, 100));
    EXPECT_TRUE(alloc.reserveSpad(2, 0, 100, 100));
    EXPECT_TRUE(alloc.reserveSpad(2, 1, 0, 100)); // other core OK
    alloc.releaseSpad(1);
    EXPECT_TRUE(alloc.reserveSpad(3, 0, 0, 100));
    EXPECT_EQ(alloc.reservations(2).size(), 2u);
}

TEST(CodeVerifierTest, MeasurementIgnoresPrivilegeBit)
{
    NpuProgram prog;
    Instr instr;
    instr.op = Opcode::fence;
    prog.code.push_back(instr);
    const Digest d1 = CodeVerifier::measure(prog);
    prog.code[0].privileged = true;
    const Digest d2 = CodeVerifier::measure(prog);
    EXPECT_TRUE(digestEqual(d1, d2));
    // But any functional field changes it.
    prog.code[0].op = Opcode::mvin;
    EXPECT_FALSE(digestEqual(CodeVerifier::measure(prog), d1));
}

TEST(CodeVerifierTest, ChunkedMeasurementHashesTheWholeStream)
{
    // Reference: the serialization built whole, then hashed once.
    // 1000 instructions of 32 bytes cross several 4 KiB chunks.
    NpuProgram prog;
    std::vector<std::uint8_t> whole;
    auto put = [&](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i)
            whole.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    const std::uint64_t n = 1000;
    put(n, 8);
    for (std::uint64_t i = 0; i < n; ++i) {
        Instr in;
        in.op = static_cast<Opcode>(i % 4);
        in.vaddr = 0x1000'0000 + i * 64;
        in.spad_row = static_cast<std::uint32_t>(i);
        in.spad_row2 = static_cast<std::uint32_t>(i * 3);
        in.rows = static_cast<std::uint32_t>(i % 16);
        in.k = 16;
        in.peer = static_cast<std::uint32_t>(i % 5);
        in.accumulate = i % 2;
        prog.code.push_back(in);
        put(static_cast<std::uint8_t>(in.op), 1);
        put(in.vaddr, 8);
        for (std::uint32_t f :
             {in.spad_row, in.spad_row2, in.rows, in.k, in.peer})
            put(f, 4);
        put(static_cast<std::uint8_t>(in.act), 1);
        put(in.accumulate ? 1 : 0, 1);
        put(static_cast<std::uint8_t>(in.world), 1);
    }
    EXPECT_TRUE(digestEqual(CodeVerifier::measure(prog),
                            Sha256::hash(whole)));
}

TEST(SecureLoaderTest, RouteCheckErrors)
{
    stats::Group stats("g");
    Mesh mesh(stats); // 5x2
    SecureLoader loader(mesh);

    EXPECT_EQ(loader.checkRoute(NocTopology{2, 2}, {0, 1, 5, 6}),
              RouteCheckError::ok);
    EXPECT_EQ(loader.checkRoute(NocTopology{2, 2}, {0, 1, 5}),
              RouteCheckError::wrong_count);
    EXPECT_EQ(loader.checkRoute(NocTopology{2, 2}, {0, 0, 5, 6}),
              RouteCheckError::duplicate_core);
    EXPECT_EQ(loader.checkRoute(NocTopology{2, 2}, {0, 1, 10, 11}),
              RouteCheckError::out_of_mesh);
    EXPECT_EQ(loader.checkRoute(NocTopology{2, 2}, {0, 1, 2, 3}),
              RouteCheckError::not_contiguous);
    // Anchored off-grid: a 2x2 block starting at column 4 leaves
    // the mesh.
    EXPECT_EQ(loader.checkRoute(NocTopology{2, 2}, {4, 5, 9, 10}),
              RouteCheckError::out_of_mesh);
    // 1x4 strip is fine when a 1x4 strip was requested.
    EXPECT_EQ(loader.checkRoute(NocTopology{4, 1}, {1, 2, 3, 4}),
              RouteCheckError::ok);
}

TEST(TaskQueueTest, FifoAndRetire)
{
    SecureTaskQueue queue(2);
    SecureTask a;
    SecureTask b;
    const std::uint64_t id_a = queue.submit(a);
    const std::uint64_t id_b = queue.submit(b);
    EXPECT_NE(id_a, 0u);
    EXPECT_NE(id_b, 0u);
    // Overflow.
    SecureTask c;
    EXPECT_EQ(queue.submit(c), 0u);

    ASSERT_NE(queue.front(), nullptr);
    EXPECT_EQ(queue.front()->id, id_a);
    queue.find(id_a)->state = SecureTaskState::completed;
    EXPECT_EQ(queue.front()->id, id_b);
    queue.retire();
    EXPECT_EQ(queue.size(), 1u);
}

} // namespace
} // namespace snpu
