/**
 * @file
 * Three-level page table stored in simulated physical memory. The
 * NPU driver (untrusted, normal world) or the secure monitor builds
 * mappings here; the IOMMU walker reads the entries back through the
 * timed memory system, so walks have a real cost.
 *
 * Entry format (8 bytes):
 *   bit 0      valid
 *   bit 1      writable
 *   bit 2      secure (TrustZone S bit: page belongs to secure world)
 *   bits 12+   physical page number << 12
 */

#ifndef SNPU_IOMMU_PAGE_TABLE_HH
#define SNPU_IOMMU_PAGE_TABLE_HH

#include <cstdint>

#include "mem/mem_system.hh"
#include "sim/types.hh"

namespace snpu
{

/** Decoded page-table entry. */
struct Pte
{
    bool valid = false;
    bool writable = false;
    bool secure = false;
    Addr paddr = 0;

    std::uint64_t encode() const;
    static Pte decode(std::uint64_t raw);
};

/**
 * A 3-level, 4 KiB-page table. Nine VA bits per level (like Sv39).
 * Table pages are bump-allocated from a dedicated arena.
 */
class PageTable
{
  public:
    static constexpr int levels = 3;
    static constexpr int bits_per_level = 9;
    static constexpr std::uint32_t entries_per_node = 1u << bits_per_level;

    /**
     * @param mem     backing memory (entries live in mem.data())
     * @param arena   physical range for page-table nodes
     */
    PageTable(MemSystem &mem, AddrRange arena);

    /** Map one 4 KiB page. Fails (returns false) on remap conflict. */
    bool map(Addr vaddr, Addr paddr, bool writable, bool secure);

    /**
     * Map a contiguous range of pages. A page already mapped to the
     * same physical page is stepped over, so overlapping windows of
     * one layout compose. Fails (returns false) at the first page
     * mapped to a different physical page; the pages before it stay
     * mapped.
     */
    bool mapRange(Addr vaddr, Addr paddr, Addr bytes, bool writable,
                  bool secure);

    /** Remove a mapping; true when one existed. */
    bool unmap(Addr vaddr);

    /** Functional lookup (no timing) — used by tests and the monitor. */
    Pte lookup(Addr vaddr) const;

    /**
     * Timed walk as the IOMMU performs it: one memory read per level.
     * @param[out] pte    the leaf entry (valid=false on fault)
     * @return tick at which the walk completes
     */
    Tick walk(Tick when, Addr vaddr, Pte &pte);

    /**
     * Timed walk with a warm page-walk cache: the non-leaf levels
     * hit the walker's internal cache, so only the leaf entry is a
     * timed memory read. This is the steady-state walk cost of a
     * production IOMMU.
     */
    Tick walkCached(Tick when, Addr vaddr, Pte &pte);

    /** Root node physical address (the "page table base register"). */
    Addr root() const { return root_node; }

    /** Number of table nodes allocated. */
    std::uint32_t nodesAllocated() const { return nodes_used; }

    /**
     * Fingerprint of the physical layout backing [va_base,
     * va_base+bytes): the entry addresses touched by a walk of every
     * page plus the raw leaf PTEs. Table nodes are bump-allocated,
     * so two tables mapping the same VA range can place entries at
     * different physical addresses depending on mapping order — and
     * walk timing (L2 sets, DRAM stream) follows the addresses. The
     * layer-timing cache folds this into the IOMMU's context
     * fingerprint so entries never alias across layouts.
     */
    std::uint64_t layoutFingerprint(Addr va_base, Addr bytes) const;

  private:
    Addr allocNode();
    static std::uint32_t index(Addr vaddr, int level);
    Addr entryAddr(Addr node, std::uint32_t idx) const;

    MemSystem &mem;
    AddrRange arena;
    std::uint32_t nodes_used = 0;
    Addr root_node = 0;
};

} // namespace snpu

#endif // SNPU_IOMMU_PAGE_TABLE_HH
