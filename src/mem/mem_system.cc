#include "mem/mem_system.hh"

namespace snpu
{

MemSystem::MemSystem(stats::Group &stats, AddressMap map,
                     MemSystemParams params)
    : _map(map),
      _dram(stats, params.dram),
      _crypto(stats, params.crypto),
      _l2(stats, _dram, params.l2, &_crypto),
      accesses(stats, "mem_accesses", "memory system accesses"),
      violations(stats, "mem_violations",
                 "accesses rejected by the world partition")
{
}

bool
MemSystem::check(const MemRequest &req)
{
    ++accesses;
    if (!_map.accessAllowed(req.world, req.paddr, req.bytes)) {
        ++violations;
        return false;
    }
    return true;
}

MemResult
MemSystem::access(Tick when, const MemRequest &req)
{
    if (!check(req))
        return MemResult{when, false, false};
    return _l2.access(when, req);
}

} // namespace snpu
