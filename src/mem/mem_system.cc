#include "mem/mem_system.hh"

namespace snpu
{

MemSystem::MemSystem(stats::Group &stats, AddressMap map,
                     MemSystemParams params)
    : _map(map),
      _dram(stats, params.dram),
      _crypto(stats, params.crypto),
      _l2(stats, _dram, L2Params{}, &_crypto),
      accesses(stats, "mem_accesses", "memory system accesses"),
      violations(stats, "mem_violations",
                 "accesses rejected by the world partition")
{
}

} // namespace snpu
