/**
 * @file
 * The combined memory system: world-partition enforcement in front of
 * a shared L2 backed by the DRAM model, plus the functional byte
 * store. Its one timed access is the memory entry point every agent
 * (DMA engines, page walker, flush engine, software NoC, pipeline
 * flag) goes through; each agent tallies its accesses and adds them
 * to the stats once per call (commit()).
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
    /** Optional DRAM encryption (the TNPU-style complement, ablation). */
    MemCryptoParams crypto;
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

    /**
     * The one timed access. Timing state (L2 tags, bank and DRAM
     * occupancy) updates at once; the mem_accesses, L2 and DRAM stat
     * increments go to @p t, which the caller adds once per call
     * with commit(). A denied request still counts one access, and
     * its violation at once.
     */
    [[gnu::always_inline]] MemResult
    access(Tick when, const MemRequest &req, MemTally &t)
    {
        ++t.mem_accesses;
        if (!_map.accessAllowed(req.world, req.paddr, req.bytes))
            [[unlikely]] {
            ++violations;
            return MemResult{when, false};
        }
        return MemResult{
            _l2.accessLines(when, req.paddr, req.bytes, req.op, t), true};
    }

    /** Add a tally from access() to the stats. */
    void
    commit(MemTally t)
    {
        accesses += static_cast<double>(t.mem_accesses);
        _l2.commit(t);
    }

    /** Functional data path (no timing, no checks). */
    PhysMem &data() { return mem; }
    const PhysMem &data() const { return mem; }

    const AddressMap &map() const { return _map; }
    DramModel &dram() { return _dram; }
    L2Cache &l2() { return _l2; }

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
    AddressMap _map;
    PhysMem mem;
    DramModel _dram;
    MemCryptoEngine _crypto;
    L2Cache _l2;

    stats::Scalar accesses;
    stats::Scalar violations;
};

} // namespace snpu

#endif // SNPU_MEM_MEM_SYSTEM_HH
