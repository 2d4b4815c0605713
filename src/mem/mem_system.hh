/**
 * @file
 * The combined memory system: world-partition enforcement in front of
 * a shared L2 backed by the DRAM model, plus the functional byte
 * store. This is the single memory entry point every agent (DMA
 * engines, page walkers, flush engine, software NoC) goes through.
 */

#ifndef SNPU_MEM_MEM_SYSTEM_HH
#define SNPU_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>

#include "mem/address_map.hh"
#include "mem/dram_model.hh"
#include "mem/l2_cache.hh"
#include "mem/mem_crypto.hh"
#include "mem/mem_types.hh"
#include "mem/phys_mem.hh"
#include "sim/stats.hh"

namespace snpu
{

/** Construction parameters for the whole memory system. */
struct MemSystemParams
{
    DramParams dram;
    L2Params l2;
    /** Optional DRAM encryption (the TNPU-style complement, ablation). */
    MemCryptoParams crypto;
    /** When false, NPU traffic bypasses L2 (pure streaming). */
    bool npu_through_l2 = true;
};

/**
 * Shared SoC memory system. The memory protection engine sits here:
 * an access whose issuing world may not touch the target region is
 * rejected before any timing or data side effect occurs.
 */
class MemSystem
{
  public:
    MemSystem(stats::Group &stats, AddressMap map = {},
              MemSystemParams params = {});

    /** Timed access; also counts partition violations. */
    MemResult access(Tick when, const MemRequest &req);

    /**
     * Timed access that bypasses the L2 (streaming DMA path). Still
     * enforces the partition.
     */
    MemResult accessUncached(Tick when, const MemRequest &req);

    /**
     * Pure partition check over [paddr, paddr+bytes): no stats, no
     * timing. Every sub-range of an allowed range is allowed, so a
     * stream whose whole range passes may issue its packets through
     * accessUnchecked().
     */
    bool
    rangeAllowed(World w, Addr paddr, Addr bytes) const
    {
        return _map.accessAllowed(w, paddr, bytes);
    }

    /**
     * Check-free timed access, for a request inside a range that
     * passed rangeAllowed(). Counts mem_accesses exactly as access()
     * (or accessUncached() when @p cached is false) does and returns
     * the completion tick.
     */
    Tick
    accessUnchecked(Tick when, const MemRequest &req, bool cached = true)
    {
        ++accesses;
        if (cached && params.npu_through_l2)
            return _l2.accessTime(when, req);
        return dramTime(when, req);
    }

    /** Functional data path (no timing, no checks). */
    PhysMem &data() { return mem; }
    const PhysMem &data() const { return mem; }

    const AddressMap &map() const { return _map; }
    DramModel &dram() { return _dram; }
    L2Cache &l2() { return _l2; }
    MemCryptoEngine &cryptoEngine() { return _crypto; }

    /**
     * Reset all hidden timing state (DRAM channel occupancy, L2
     * contents, counter cache) to the canonical drained state. The
     * layer-timing cache brackets every memoizable op with this in
     * both cache modes, so an op always starts — and, via the
     * post-op bracket, ends — from the same memory-system state
     * whether it runs live or replays. Functional bytes and stats
     * are untouched.
     */
    void canonicalizeTiming()
    {
        _dram.reset();
        _l2.invalidateAll();
        _crypto.resetTiming();
    }

    std::uint64_t partitionViolations() const
    {
        return static_cast<std::uint64_t>(violations.value());
    }

  private:
    bool check(const MemRequest &req);

    /** Completion tick of an access served straight from DRAM. */
    Tick
    dramTime(Tick when, const MemRequest &req)
    {
        return _dram.access(when, req.bytes, req.op) +
               _crypto.accessPenalty(req.paddr);
    }

    AddressMap _map;
    MemSystemParams params;
    PhysMem mem;
    DramModel _dram;
    MemCryptoEngine _crypto;
    L2Cache _l2;

    stats::Scalar accesses;
    stats::Scalar violations;
};

} // namespace snpu

#endif // SNPU_MEM_MEM_SYSTEM_HH
