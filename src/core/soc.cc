#include "core/soc.hh"

#include <map>
#include <mutex>
#include <tuple>

#include "core/protection_table.hh"
#include "core/timing_cache.hh"
#include "sim/logging.hh"

namespace snpu
{

BootChain
makeBootChain(const SocParams &params)
{
    // Image bytes come from an LCG seeded by the config fingerprint
    // (corrupt knobs excluded from the fingerprint, so the tampered
    // chain starts from the same golden images).
    std::uint64_t state = socConfigFingerprint(params);
    struct StageSpec
    {
        const char *name;
        std::size_t bytes;
    };
    static constexpr StageSpec stages[] = {
        {"rom-loader", 1u << 10},
        {"trusted-firmware", 4u << 10},
        {"teeos+npu-monitor", 8u << 10},
    };
    BootChain chain;
    for (const StageSpec &s : stages) {
        std::vector<std::uint8_t> image(s.bytes);
        for (auto &b : image) {
            state = state * 6364136223846793005ULL +
                    1442695040888963407ULL;
            b = static_cast<std::uint8_t>(state >> 56);
        }
        chain.addStage(s.name, std::move(image));
    }
    if (!params.boot_corrupt_stage.empty() &&
        !chain.corruptStage(params.boot_corrupt_stage,
                            params.boot_corrupt_byte)) {
        fatal("unknown boot stage '", params.boot_corrupt_stage,
              "' (stages: rom-loader, trusted-firmware, "
              "teeos+npu-monitor)");
    }
    return chain;
}

std::shared_ptr<const MeasuredBoot>
measuredBoot(const SocParams &params)
{
    using Key = std::tuple<std::uint64_t, std::string, std::uint32_t>;
    static std::mutex mu;
    static std::map<Key, std::shared_ptr<const MeasuredBoot>> memo;
    const Key key{socConfigFingerprint(params), params.boot_corrupt_stage,
                  params.boot_corrupt_byte};
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(key);
    if (it == memo.end()) {
        const BootChain chain = makeBootChain(params);
        auto boot = std::make_shared<MeasuredBoot>();
        boot->golden = chain.goldenMeasurement();
        boot->report = chain.boot();
        it = memo.emplace(key, std::move(boot)).first;
    }
    return it->second;
}

AesKey
monitorSealedKey()
{
    AesKey sealed_key{};
    for (std::size_t i = 0; i < sealed_key.size(); ++i)
        sealed_key[i] = static_cast<std::uint8_t>(0xA5 ^ i);
    return sealed_key;
}

Soc::Soc(SocParams params)
    : cfg(params), stat_group("soc")
{
    stat_registry.add(stat_group);

    // Memory system with Table II timing.
    MemSystemParams mem_params;
    mem_params.dram.bytes_per_cycle = cfg.dramBytesPerCycle();
    mem_params.crypto.enabled = cfg.memory_encryption;
    mem_system = std::make_unique<MemSystem>(stat_group, AddressMap{},
                                             mem_params);

    // The protection backend comes from the backend table by name;
    // the SoC never branches on a backend kind.
    const ProtectionBackendRow &backend = protectionBackend(cfg.protection);

    // Page tables live in a dedicated arena at the bottom of the
    // normal NPU region (the driver's job on real systems). Only
    // built when the chosen backend's row asks for one.
    const AddrRange &normal_arena =
        mem_system->map().npuArena(World::normal);
    if (backend.needs_page_table) {
        page_table = std::make_unique<PageTable>(
            *mem_system, AddrRange{normal_arena.base, 16u << 20});
    }

    // One protection backend per tile, each with its own child stats
    // group ("protection<i>") so per-tile stat names stay unique in
    // the tree while every backend exports the same canonical names.
    controls.reserve(cfg.tiles);
    for (std::uint32_t i = 0; i < cfg.tiles; ++i) {
        control_groups.push_back(std::make_unique<stats::Group>(
            stat_group, "protection" + std::to_string(i)));
        controls.push_back(backend.build(*control_groups.back(), cfg,
                                         page_table.get()));
        if (NpuGuarder *g = controls.back()->asGuarder())
            guarders.push_back(g);
    }

    // The NPU device.
    NpuDeviceParams dp;
    dp.tiles = cfg.tiles;
    dp.mesh.cols = 5;
    dp.mesh.rows = (cfg.tiles + 4) / 5;
    if (dp.mesh.cols * dp.mesh.rows != cfg.tiles) {
        dp.mesh.cols = cfg.tiles;
        dp.mesh.rows = 1;
    }
    dp.core.systolic.dim = cfg.systolic_dim;
    dp.core.spad_rows = cfg.spadRows();
    dp.core.isolation = cfg.spad_isolation;
    dp.core.timing_only = cfg.timing_only;
    dp.core.dma.channels = cfg.dma_channels;
    dp.noc_mode = cfg.noc_mode;

    std::vector<ProtectionBackend *> raw_controls;
    for (auto &ctrl : controls)
        raw_controls.push_back(ctrl.get());
    device = std::make_unique<NpuDevice>(stat_group, *mem_system,
                                         raw_controls, dp);

    // Apply partition boundaries when configured. The accumulator
    // is split at the same fraction: a statically partitioned NPU
    // partitions every on-chip SRAM.
    if (cfg.spad_isolation == IsolationMode::partition) {
        const auto boundary = static_cast<std::uint32_t>(
            cfg.partition_secure_frac * cfg.spadRows());
        for (std::uint32_t i = 0; i < cfg.tiles; ++i) {
            NpuCore &core = device->core(i);
            core.scratchpad().setMode(IsolationMode::partition,
                                      boundary);
            const auto acc_boundary = static_cast<std::uint32_t>(
                cfg.partition_secure_frac *
                core.coreParams().acc_rows);
            core.accumulator().setMode(IsolationMode::partition,
                                       acc_boundary);
        }
    }

    // The Monitor only exists on the sNPU system. Measured boot runs
    // first: the chain hash-extends each firmware stage into the
    // measurement register the monitor will later quote. A tampered
    // stage halts secure boot but not construction — the compromised
    // platform must be simulatable so attestation has something to
    // catch at admission.
    if (cfg.system == SystemKind::snpu) {
        if (guarders.empty())
            fatal("sNPU system requires guarder access control");
        const auto boot = measuredBoot(cfg);
        golden_mr = boot->golden;
        boot_report = boot->report;
        npu_monitor = std::make_unique<NpuMonitor>(
            stat_group, *mem_system, *device, guarders,
            monitorSealedKey(), boot_report.measurement);
    }
}

ProtectionBackend &
Soc::protection(std::uint32_t core)
{
    if (core >= controls.size())
        panic("no protection backend for core ", core);
    return *controls[core];
}

PageTable &
Soc::pageTable()
{
    if (!page_table)
        panic("this system has no page table");
    return *page_table;
}

NpuMonitor &
Soc::monitor()
{
    if (!npu_monitor)
        panic("this system has no NPU monitor");
    return *npu_monitor;
}

void
Soc::armFaults(FaultInjector *inj)
{
    fault_injector = inj;
    for (std::uint32_t i = 0; i < cfg.tiles; ++i)
        device->core(i).armFaults(inj);
    for (auto &ctrl : controls)
        ctrl->armFaults(inj);
    device->fabric().armFaults(inj);
    if (npu_monitor)
        npu_monitor->armFaults(inj);
}

void
Soc::attachTrace(TraceSink *sink)
{
    trace_sink = sink;
    for (std::uint32_t i = 0; i < cfg.tiles; ++i)
        device->core(i).attachTrace(sink);
    for (std::size_t i = 0; i < controls.size(); ++i)
        controls[i]->attachTrace(sink, controls[i]->name() +
                                           std::to_string(i));
    device->fabric().attachTrace(sink, "noc");
    device->globalScratchpad().attachTrace(sink, "global_spad");
    if (npu_monitor)
        npu_monitor->attachTrace(sink, "monitor");
}

bool
Soc::driverSetCoreWorld(std::uint32_t core, World w,
                        const SecureContext &ctx)
{
    if (cfg.system == SystemKind::normal_npu) {
        // No enforcement: the unprotected NPU trusts the driver.
        return device->setCoreWorld(core, w, true);
    }
    return device->setCoreWorld(core, w, ctx.canConfigureSecure());
}

} // namespace snpu
