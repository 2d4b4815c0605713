/**
 * @file
 * Shared types for the simulated memory system.
 */

#ifndef SNPU_MEM_MEM_TYPES_HH
#define SNPU_MEM_MEM_TYPES_HH

#include <cstdint>

#include "sim/types.hh"

namespace snpu
{

/** Size of one memory packet / cache line / DMA beat, in bytes. */
constexpr std::uint32_t line_bytes = 64;

/** Page size used by the IOMMU page tables. */
constexpr std::uint32_t page_bytes = 4096;

/**
 * Cycles between consecutive packet issues of a streaming agent: the
 * DMA engine's packets and the flush engine's rows.
 */
constexpr Tick packet_issue_interval = 1;

/** Kinds of memory access. */
enum class MemOp : std::uint8_t
{
    read,
    write,
};

/**
 * A single timed memory access, already translated to a physical
 * address. Issued by the DMA engine, the IOMMU page walker, or the
 * flush engine.
 */
struct MemRequest
{
    Addr paddr = 0;
    std::uint32_t bytes = 0;
    MemOp op = MemOp::read;
    /** Security world of the issuing agent (for partition checks). */
    World world = World::normal;
};

/**
 * Stat increments of one memory-system call, tallied by the inline
 * line kernel (L2Cache, DramModel) and by MemSystem::access(), and
 * added to the stats once per call by MemSystem::commit(). Every
 * field is an integer count or tick sum, so adding them once equals
 * adding them line by line.
 */
struct MemTally
{
    std::uint64_t mem_accesses = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t l2_writebacks = 0;
    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writes = 0;
    std::uint64_t dram_bytes = 0;
    /** DRAM queue delay: one sample per DRAM access. */
    std::uint64_t queue_count = 0;
    Tick queue_sum = 0;
    Tick queue_min = max_tick;
    Tick queue_max = 0;
};

/** Outcome of a timed memory access. */
struct MemResult
{
    /** Tick at which the access completes (data available / written). */
    Tick done = 0;
    /** False when the world partition rejected the access. */
    bool ok = true;
};

} // namespace snpu

#endif // SNPU_MEM_MEM_TYPES_HH
