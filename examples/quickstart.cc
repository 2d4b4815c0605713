/**
 * @file
 * Quickstart: the complete sNPU secure-inference flow in one file.
 *
 *   1. Build the sNPU SoC (Table II configuration).
 *   2. Provision a confidential model: encrypt + MAC it with the key
 *      sealed to the NPU Monitor, and record the program measurement
 *      the user expects.
 *   3. Submit the task through the untrusted driver path and let the
 *      monitor verify, decrypt, and set up the secure context.
 *   4. Run the loadable program on the assigned core and read the
 *      security counters.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "core/soc.hh"
#include "core/task_runner.hh"
#include "tee/monitor/npu_monitor.hh"

using namespace snpu;

int
main()
{
    // 1. The SoC. makeSystem() returns the paper's sNPU config:
    //    NPU Guarder access control, ID-based scratchpad isolation,
    //    peephole NoC, and the NPU Monitor in the secure world.
    Soc soc(makeSystem(SystemKind::snpu));
    std::printf("built: %s\n", soc.params().describe().c_str());

    // 2. A small confidential model (weights are secret bytes) and
    //    a compiled program for it. In a real deployment the model
    //    owner performs this step; the monitor's verifier doubles as
    //    the provisioning tool here because it holds the sealed key.
    TaskRunner runner(soc);
    NpuTask task = NpuTask::fromModel(ModelId::yololite, World::secure);
    task.model = task.model.scaled(8); // keep the demo quick

    SecureTask secure;
    secure.program = std::make_shared<const NpuProgram>(runner.compile(task));
    secure.expected_measurement = CodeVerifier::measure(*secure.program);
    secure.topology = NocTopology{1, 1};
    secure.proposed_cores = {0};

    std::vector<std::uint8_t> model_bytes(4096);
    for (std::size_t i = 0; i < model_bytes.size(); ++i)
        model_bytes[i] = static_cast<std::uint8_t>(i * 31 + 7);
    AesBlock iv{};
    iv[15] = 1;
    Digest mac{};
    secure.encrypted_model = std::make_shared<const std::vector<std::uint8_t>>(
        soc.monitor().verifier().encryptModel(model_bytes, iv, mac));
    secure.model_mac = mac;
    secure.model_iv = iv;

    // 3. Submit + launch. Everything the driver handed over is
    //    validated inside the monitor; on success the core is in the
    //    secure world with guarder windows installed.
    const std::uint64_t id = soc.monitor().submit(secure);
    std::printf("submitted secure task %llu\n",
                static_cast<unsigned long long>(id));

    LaunchResult launch = soc.monitor().launchNext();
    if (!launch.ok()) {
        std::printf("launch rejected: %s\n", launch.reason().c_str());
        return 1;
    }
    std::printf("launched on core %u; model decrypted to secure PA "
                "0x%llx\n",
                launch.cores[0],
                static_cast<unsigned long long>(launch.model_paddr));

    // 4. Provision data windows for the program's buffers and run
    //    the monitor-wrapped loadable program.
    RunOptions opts;
    opts.core = launch.cores[0];
    RunResult run = runner.run(task, opts);
    if (!run.ok()) {
        std::printf("execution failed: %s\n", run.error().c_str());
        return 1;
    }
    std::printf("inference done: %llu cycles, %.1f%% FLOPS "
                "utilization, %llu guarder checks, 0x%llx DMA bytes\n",
                static_cast<unsigned long long>(run.cycles),
                run.utilization(256) * 100.0,
                static_cast<unsigned long long>(run.check_requests),
                static_cast<unsigned long long>(run.dma_bytes));

    // Release the secure context; the monitor scrubs the scratchpad.
    soc.monitor().finish(launch.task_id);
    std::printf("task finished; core back in the %s world\n",
                worldName(soc.npu().core(0).idState()));
    return 0;
}
