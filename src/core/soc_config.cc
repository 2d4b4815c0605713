#include "core/soc_config.hh"

#include <sstream>

namespace snpu
{

const char *
systemKindName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::normal_npu:
        return "normal-npu";
      case SystemKind::trustzone_npu:
        return "trustzone-npu";
      case SystemKind::snpu:
        return "snpu";
    }
    return "?";
}

SocParams
makeSystem(SystemKind kind)
{
    SocParams params;
    params.system = kind;
    switch (kind) {
      case SystemKind::normal_npu:
        params.protection = "passthrough";
        params.spad_isolation = IsolationMode::none;
        params.noc_mode = NocMode::unauthorized;
        break;
      case SystemKind::trustzone_npu:
        params.protection = "iommu";
        params.iotlb_entries = 32;
        // The industry design temporally shares via flushing or
        // statically partitions; experiments pick one explicitly.
        params.spad_isolation = IsolationMode::partition;
        params.noc_mode = NocMode::software;
        break;
      case SystemKind::snpu:
        params.protection = "guarder";
        params.spad_isolation = IsolationMode::id_based;
        params.noc_mode = NocMode::peephole;
        break;
    }
    return params;
}

std::string
SocParams::describe() const
{
    std::ostringstream os;
    os << systemKindName(system) << ": tiles=" << tiles
       << " dim=" << systolic_dim << " spad=" << spad_kib_per_tile
       << "KiB l2=" << (L2Params{}.size_bytes >> 20)
       << "MiB dram=" << dram_gbps << "GB/s";
    if (protection == "passthrough")
        os << " ac=none";
    else if (protection == "iommu")
        os << " ac=iommu(" << iotlb_entries << ")";
    else
        os << " ac=" << protection;
    return os.str();
}

} // namespace snpu
