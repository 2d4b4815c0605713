/**
 * @file
 * Physical address layout of the simulated SoC, including the
 * TrustZone-style secure/normal world partition and the NPU-reserved
 * DMA region (the ION/CMA-style contiguous allocator arena).
 */

#ifndef SNPU_MEM_ADDRESS_MAP_HH
#define SNPU_MEM_ADDRESS_MAP_HH

#include "sim/types.hh"

namespace snpu
{

/** One contiguous physical region. */
struct AddrRange
{
    Addr base = 0;
    Addr size = 0;

    Addr end() const { return base + size; }

    bool
    contains(Addr addr, Addr bytes = 1) const
    {
        return addr >= base && bytes <= size && addr - base <= size - bytes;
    }

    bool
    overlaps(const AddrRange &other) const
    {
        return base < other.end() && other.base < end();
    }
};

/**
 * SoC physical memory map. Mirrors the layout assumed by the paper:
 * a normal-world DRAM region, a pre-allocated secure-world region
 * (the "TrustZone secure memory area"), and within each world an
 * NPU-reserved contiguous DMA arena managed by the driver (normal)
 * or the trusted allocator (secure).
 */
class AddressMap
{
  public:
    /** Default layout: 2 GiB DRAM, top 512 MiB secure. */
    AddressMap();

    AddressMap(AddrRange dram, AddrRange secure,
               AddrRange npu_normal, AddrRange npu_secure);

    const AddrRange &dram() const { return _dram; }
    const AddrRange &secureRegion() const { return _secure; }

    /** NPU-reserved DMA arena for the given world. */
    const AddrRange &npuArena(World w) const;

    /** World that owns physical address @p addr. */
    World worldOf(Addr addr) const;

    /**
     * World partition check: may an agent in world @p w access
     * [addr, addr+bytes)? Secure agents may access both worlds;
     * normal agents only normal memory.
     */
    bool
    accessAllowed(World w, Addr addr, Addr bytes) const
    {
        if (!_dram.contains(addr, bytes))
            return false;
        if (w == World::secure)
            return true;
        // A normal-world access must not touch any secure byte.
        return !AddrRange{addr, bytes}.overlaps(_secure);
    }

  private:
    AddrRange _dram;
    AddrRange _secure;
    AddrRange npu_normal;
    AddrRange npu_secure;
};

} // namespace snpu

#endif // SNPU_MEM_ADDRESS_MAP_HH
