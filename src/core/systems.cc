#include "core/systems.hh"

namespace snpu
{

std::unique_ptr<Soc>
buildSoc(SystemKind kind, const SystemOverrides &overrides)
{
    SocParams params = makeSystem(kind);
    if (!overrides.protection.empty())
        params.protection = overrides.protection;
    if (overrides.iotlb_entries)
        params.iotlb_entries = overrides.iotlb_entries;
    if (overrides.dram_gbps > 0)
        params.dram_gbps = overrides.dram_gbps;
    if (overrides.apply_isolation) {
        params.spad_isolation = overrides.spad_isolation;
        if (overrides.partition_secure_frac > 0)
            params.partition_secure_frac =
                overrides.partition_secure_frac;
    }
    if (overrides.apply_noc)
        params.noc_mode = overrides.noc_mode;
    params.memory_encryption = overrides.memory_encryption;
    params.iommu_walk_cache = overrides.iommu_walk_cache;
    if (overrides.dma_channels)
        params.dma_channels = overrides.dma_channels;
    return std::make_unique<Soc>(params);
}

SystemKind
systemForBackend(const std::string &backend)
{
    return backend == "guarder" ? SystemKind::snpu
                                : SystemKind::normal_npu;
}

SocParams
paramsForBackend(const std::string &backend)
{
    SocParams params = makeSystem(systemForBackend(backend));
    params.protection = backend;
    return params;
}

World
worldForBackend(const std::string &backend, World wanted)
{
    return systemForBackend(backend) == SystemKind::snpu
               ? wanted
               : World::normal;
}

RunResult
measureModel(SystemKind kind, ModelId model,
             const SystemOverrides &overrides, FlushGranularity flush,
             World world)
{
    auto soc = buildSoc(kind, overrides);
    TaskRunner runner(*soc);
    NpuTask task = NpuTask::fromModel(model, world);
    if (overrides.model_scale > 1)
        task.model = task.model.scaled(overrides.model_scale);
    RunOptions opts;
    opts.flush = flush;
    return runner.run(task, opts);
}

} // namespace snpu
