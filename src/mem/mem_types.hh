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

/** Outcome of a timed memory access. */
struct MemResult
{
    /** Tick at which the access completes (data available / written). */
    Tick done = 0;
    /** False when the world partition rejected the access. */
    bool ok = true;
    /** True when the access was served by the L2 cache. */
    bool l2_hit = false;
};

} // namespace snpu

#endif // SNPU_MEM_MEM_TYPES_HH
