/**
 * @file
 * The multi-tile NPU device: ten accelerator tiles (Table II), each
 * with its own local scratchpad and DMA engine, connected by a 5x2
 * mesh NoC, plus a shared ("global") scratchpad and the software-NoC
 * transport used by the shared-memory baseline.
 */

#ifndef SNPU_NPU_NPU_DEVICE_HH
#define SNPU_NPU_NPU_DEVICE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dma/protection_backend.hh"
#include "mem/mem_system.hh"
#include "noc/mesh.hh"
#include "noc/router_controller.hh"
#include "noc/software_noc.hh"
#include "npu/npu_core.hh"
#include "sim/stats.hh"
#include "spad/scratchpad.hh"

namespace snpu
{

/** Whole-device configuration. */
struct NpuDeviceParams
{
    std::uint32_t tiles = 10;
    MeshParams mesh;
    NpuCoreParams core;
    /** Global (shared) scratchpad geometry. */
    std::uint32_t global_rows = 8192;
    std::uint32_t global_row_bytes = 16;
    NocMode noc_mode = NocMode::peephole;
    /** Shared-memory buffer used by the software NoC. */
    AddrRange swnoc_buffer{0, 0};
};

/**
 * The NPU device. One ProtectionBackend per tile is supplied by the
 * system builder (pass-through, IOMMU, or Guarder depending on the
 * comparative system).
 */
class NpuDevice
{
  public:
    NpuDevice(stats::Group &stats, MemSystem &mem,
              std::vector<ProtectionBackend *> controls,
              NpuDeviceParams params = {});

    std::uint32_t tiles() const
    {
        return static_cast<std::uint32_t>(cores.size());
    }
    NpuCore &core(std::uint32_t i);
    Mesh &mesh() { return *_mesh; }
    NocFabric &fabric() { return *_fabric; }
    SoftwareNoc &softwareNoc() { return *swnoc; }
    Scratchpad &globalScratchpad() { return *global_spad; }

    /**
     * Set a core's ID state through the secure path, keeping the
     * mesh's per-node world in sync (the router controllers
     * authenticate against it).
     */
    bool setCoreWorld(std::uint32_t core_id, World w, bool from_secure);

    /**
     * Software-NoC transfer between two cores' local scratchpads
     * (the Fig 16/17 shared-memory baseline).
     */
    NocResult softwareTransfer(Tick when, std::uint32_t src_core,
                               std::uint32_t dst_core,
                               std::uint32_t src_row,
                               std::uint32_t dst_row,
                               std::uint32_t nrows);

    const NpuDeviceParams &deviceParams() const { return params; }

  private:
    NpuDeviceParams params;
    MemSystem &mem;
    std::unique_ptr<Mesh> _mesh;
    std::unique_ptr<NocFabric> _fabric;
    std::unique_ptr<SoftwareNoc> swnoc;
    std::unique_ptr<Scratchpad> global_spad;
    std::vector<std::unique_ptr<NpuCore>> cores;
};

} // namespace snpu

#endif // SNPU_NPU_NPU_DEVICE_HH
