/**
 * @file
 * The IOMMU baseline: the protection backend used by the "TrustZone
 * NPU" comparative system. Every 64-byte memory packet looks up the
 * IOTLB; a miss triggers a 3-level page walk through the timed memory
 * system. The TrustZone extension is the S bit carried in the PTE:
 * a normal-world request that resolves to a secure page is denied.
 */

#ifndef SNPU_IOMMU_IOMMU_HH
#define SNPU_IOMMU_IOMMU_HH

#include <cstdint>

#include "dma/protection_backend.hh"
#include "iommu/iotlb.hh"
#include "iommu/page_table.hh"
#include "sim/stats.hh"

namespace snpu
{

/** IOMMU timing parameters. */
struct IommuParams
{
    std::uint32_t iotlb_entries = 32;
    /** IOTLB lookup latency on a hit (pipelined CAM). */
    Tick hit_latency = 1;
    /** Extra fill latency after a completed walk. */
    Tick fill_latency = 2;
    /**
     * Walker issue occupancy: a new walk can start at most every
     * this many cycles (the walker pipelines, but its L2 port
     * bounds throughput). This is what throttles a thrashing IOTLB.
     */
    Tick walker_occupancy = 6;
    /**
     * Model a warm page-walk cache: non-leaf levels hit inside the
     * walker and only the leaf entry is a timed memory read.
     */
    bool walk_cache = false;
};

/**
 * Per-packet IOMMU with a TrustZone S/NS extension, the table's
 * backend "iommu". Canonical checks/denials come from the base;
 * walk counts and walk latency export alongside as backend extras.
 */
class Iommu : public ProtectionBackend
{
  public:
    Iommu(stats::Group &stats, PageTable &table, IommuParams params = {});

    CheckGranularity granularity() const override
    {
        return CheckGranularity::packet;
    }

    Translation translate(Tick when, Addr vaddr, std::uint32_t bytes,
                          MemOp op, World world) override;

    /**
     * Driver-style provisioning: map the context's pages (secure
     * contexts carry the TrustZone S bit) and invalidate the IOTLB.
     * Remapping an already-mapped page keeps the existing entry —
     * re-provisioning the same buffers is the common serve-path case.
     */
    Status beginContext(const ProtectionContext &ctx,
                        bool from_secure) override;

    /**
     * World switch / context retirement: the IOTLB is invalidated.
     * The page table itself is driver-owned and shared across tiles,
     * so mappings stay.
     */
    Status endContext(bool from_secure) override;

    /** IOTLB contents and walker occupancy are timing state. */
    void canonicalizeTiming() override
    {
        flushTlb();
        walker_free = 0;
    }

    std::uint64_t timingFingerprint() const override;

    /** Walk timing follows the physical page-table layout. */
    std::uint64_t contextFingerprint(Addr va_base,
                                     Addr bytes) override
    {
        return table.layoutFingerprint(va_base, bytes);
    }

    /** Invalidate the IOTLB (world switch / driver remap). */
    void flushTlb();

    Iotlb &tlb() { return iotlb; }
    std::uint64_t walks() const
    {
        return static_cast<std::uint64_t>(walk_count.value());
    }

  private:
    PageTable &table;
    IommuParams params;
    Iotlb iotlb;
    /** Next tick the (pipelined) walker can accept a new walk. */
    Tick walker_free = 0;

    stats::Scalar walk_count;
    stats::Average walk_latency;
};

} // namespace snpu

#endif // SNPU_IOMMU_IOMMU_HH
