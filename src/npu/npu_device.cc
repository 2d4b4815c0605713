#include "npu/npu_device.hh"

#include "sim/logging.hh"

namespace snpu
{

NpuDevice::NpuDevice(stats::Group &stats, MemSystem &mem,
                     std::vector<ProtectionBackend *> controls,
                     NpuDeviceParams params)
{
    if (params.tiles == 0)
        fatal("NPU device needs at least one tile");
    if (controls.size() != params.tiles)
        fatal("need exactly one access controller per tile");
    if (params.mesh.cols * params.mesh.rows != params.tiles)
        fatal("mesh geometry does not cover the tile count");

    _mesh = std::make_unique<Mesh>(stats, params.mesh);
    _fabric = std::make_unique<NocFabric>(stats, *_mesh, params.noc_mode);

    const AddrRange &arena = mem.map().npuArena(World::normal);
    swnoc = std::make_unique<SoftwareNoc>(
        stats, mem,
        AddrRange{arena.end() - swnoc_buffer_bytes, swnoc_buffer_bytes});

    SpadParams gp;
    gp.rows = global_rows;
    gp.row_bytes = global_row_bytes;
    gp.scope = SpadScope::global;
    gp.mode = params.core.isolation;
    global_spad = std::make_unique<Scratchpad>(stats, gp);

    cores.reserve(params.tiles);
    for (std::uint32_t i = 0; i < params.tiles; ++i) {
        NpuCoreParams cp = params.core;
        cp.core_id = i;
        cores.push_back(
            std::make_unique<NpuCore>(stats, mem, *controls[i], cp));
        cores.back()->attachNoc(_fabric.get(), swnoc.get());
    }
}

NpuCore &
NpuDevice::core(std::uint32_t i)
{
    if (i >= cores.size())
        panic("core index out of range: ", i);
    return *cores[i];
}

bool
NpuDevice::setCoreWorld(std::uint32_t core_id, World w, bool from_secure)
{
    if (core_id >= cores.size())
        panic("setCoreWorld: core out of range");
    if (!cores[core_id]->setIdState(w, from_secure))
        return false;
    _mesh->setNodeWorld(core_id, w);
    return true;
}

NocResult
NpuDevice::softwareTransfer(Tick when, std::uint32_t src_core,
                            std::uint32_t dst_core,
                            std::uint32_t src_row, std::uint32_t dst_row,
                            std::uint32_t nrows)
{
    if (src_core >= cores.size() || dst_core >= cores.size())
        panic("softwareTransfer: core out of range");
    // The transfer runs under the source core's context; the shared
    // buffer must be accessible to it.
    return swnoc->transfer(when, cores[src_core]->scratchpad(),
                           cores[dst_core]->scratchpad(), src_row,
                           dst_row, nrows, cores[src_core]->idState());
}

} // namespace snpu
