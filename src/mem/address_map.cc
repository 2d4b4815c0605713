#include "mem/address_map.hh"

#include "sim/logging.hh"

namespace snpu
{

namespace
{
constexpr Addr mib = 1ULL << 20;
constexpr Addr gib = 1ULL << 30;
} // namespace

AddressMap::AddressMap()
    : _dram{0x8000'0000ULL, 2 * gib},
      _secure{0x8000'0000ULL + 2 * gib - 512 * mib, 512 * mib},
      npu_normal{0x8000'0000ULL + 1 * gib, 256 * mib},
      npu_secure{_secure.base + 128 * mib, 256 * mib}
{
}

AddressMap::AddressMap(AddrRange dram, AddrRange secure,
                       AddrRange npu_normal, AddrRange npu_secure)
    : _dram(dram), _secure(secure),
      npu_normal(npu_normal), npu_secure(npu_secure)
{
    if (!dram.contains(secure.base, secure.size))
        fatal("secure region must lie inside DRAM");
    if (!dram.contains(npu_normal.base, npu_normal.size))
        fatal("normal NPU arena must lie inside DRAM");
    if (!secure.contains(npu_secure.base, npu_secure.size))
        fatal("secure NPU arena must lie inside the secure region");
    if (npu_normal.overlaps(secure))
        fatal("normal NPU arena overlaps the secure region");
}

const AddrRange &
AddressMap::npuArena(World w) const
{
    return w == World::secure ? npu_secure : npu_normal;
}

World
AddressMap::worldOf(Addr addr) const
{
    return _secure.contains(addr) ? World::secure : World::normal;
}

} // namespace snpu
