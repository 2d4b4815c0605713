/**
 * @file
 * Comparative-system helpers shared by benches and examples: build a
 * Soc for a named system with common overrides, and run one model on
 * it end to end.
 */

#ifndef SNPU_CORE_SYSTEMS_HH
#define SNPU_CORE_SYSTEMS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/soc.hh"
#include "core/task_runner.hh"
#include "workload/model_zoo.hh"

namespace snpu
{

/** Common experiment overrides on top of a system's canonical params. */
struct SystemOverrides
{
    /** Protection backend by table name; empty = system default.
     *  Unknown names are fatal (the error lists every name). */
    std::string protection;
    std::uint32_t iotlb_entries = 0;    //!< 0 = keep default
    double dram_gbps = 0.0;             //!< 0 = keep default
    IsolationMode spad_isolation = IsolationMode::id_based;
    bool apply_isolation = false;
    double partition_secure_frac = 0.0; //!< used with partition mode
    NocMode noc_mode = NocMode::peephole;
    bool apply_noc = false;
    bool memory_encryption = false;
    bool iommu_walk_cache = false;
    std::uint32_t dma_channels = 0;     //!< 0 = keep default
    std::uint32_t model_scale = 1;      //!< divide M dims for speed
};

/** Build a Soc for @p kind with @p overrides applied. */
std::unique_ptr<Soc> buildSoc(SystemKind kind,
                              const SystemOverrides &overrides = {});

/**
 * The system that carries protection backend @p backend in the
 * serving sweeps: sNPU for "guarder" (only sNPU has the NPU Monitor
 * that secure tenants need), the Normal NPU for every other backend.
 */
SystemKind systemForBackend(const std::string &backend);

/** Canonical params of systemForBackend(@p backend) running it. */
SocParams paramsForBackend(const std::string &backend);

/**
 * The world a tenant asking for @p wanted runs in under @p backend:
 * @p wanted on sNPU, normal elsewhere (no monitor admits secure
 * tenants there).
 */
World worldForBackend(const std::string &backend, World wanted);

/** Compile-and-run one model on a fresh Soc; returns the RunResult. */
RunResult measureModel(SystemKind kind, ModelId model,
                       const SystemOverrides &overrides = {},
                       FlushGranularity flush = FlushGranularity::none,
                       World world = World::normal);

} // namespace snpu

#endif // SNPU_CORE_SYSTEMS_HH
