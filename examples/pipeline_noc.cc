/**
 * @file
 * Multi-core pipeline example: one inference mapped layer-by-layer
 * across four NPU tiles, with inter-layer activations handed off
 * three different ways:
 *
 *   - software NoC : store to shared memory, reload on the peer
 *                    (the memory-wall baseline),
 *   - unauthorized : direct mesh NoC with no checks (fast, insecure),
 *   - peephole     : direct mesh NoC with sNPU's authentication.
 *
 * Also demonstrates route integrity: the monitor rejects a malicious
 * 1x4 core layout offered against a 2x2 request.
 *
 * Build & run: ./build/examples/pipeline_noc
 */

#include <cstdio>
#include <memory>
#include <utility>

#include "core/systems.hh"
#include "core/task_runner.hh"
#include "tee/monitor/npu_monitor.hh"

using namespace snpu;

int
main()
{
    NpuTask task = NpuTask::fromModel(ModelId::resnet, World::secure);
    task.model = task.model.scaled(4);
    const auto stages =
        static_cast<std::uint32_t>(task.model.layers.size());

    std::printf("resnet mapped layer-per-core across 4 tiles "
                "(%u stages)\n\n",
                stages);
    std::printf("%-14s %12s %12s %10s\n", "transport", "cycles",
                "NoC bytes", "transfers");

    Tick unauth_cycles = 0;
    for (NocMode mode : {NocMode::software, NocMode::unauthorized,
                         NocMode::peephole}) {
        auto soc = buildSoc(SystemKind::snpu);
        TaskRunner runner(*soc);
        PipelineResult res =
            runner.runPipeline(task, {0, 1, 5, 6}, mode, stages);
        if (!res.ok()) {
            std::printf("%s failed: %s\n", nocModeName(mode),
                        res.error().c_str());
            return 1;
        }
        if (mode == NocMode::unauthorized)
            unauth_cycles = res.cycles;
        std::printf("%-14s %12llu %12llu %10llu\n",
                    nocModeName(mode),
                    static_cast<unsigned long long>(res.cycles),
                    static_cast<unsigned long long>(res.noc_bytes),
                    static_cast<unsigned long long>(res.transfers));
    }
    std::printf("\n(the peephole should match the unauthorized NoC "
                "within a handshake: %llu cycles)\n\n",
                static_cast<unsigned long long>(unauth_cycles));

    // Route integrity: the 2x2 block {0,1,5,6} is what we used
    // above; a compromised scheduler offering the 1x4 strip
    // {0,1,2,3} is caught before anything loads.
    Soc soc(makeSystem(SystemKind::snpu));
    NpuProgram program;
    Instr nop;
    nop.op = Opcode::fence;
    program.code.push_back(nop);
    program.spad_rows_used = 16;
    SecureTask secure;
    secure.expected_measurement = CodeVerifier::measure(program);
    secure.program = std::make_shared<const NpuProgram>(std::move(program));
    secure.topology = NocTopology{2, 2};

    secure.proposed_cores = {0, 1, 5, 6};
    soc.monitor().submit(secure);
    LaunchResult good = soc.monitor().launchNext();
    std::printf("route check, 2x2 block {0,1,5,6}: %s\n",
                good.ok() ? "accepted" : good.reason().c_str());
    if (good.ok())
        soc.monitor().finish(good.task_id);

    secure.proposed_cores = {0, 1, 2, 3};
    soc.monitor().submit(secure);
    LaunchResult bad = soc.monitor().launchNext();
    std::printf("route check, 1x4 strip {0,1,2,3}: %s\n",
                bad.ok() ? "accepted (BAD)" : bad.reason().c_str());
    return bad.ok() ? 1 : 0;
}
