/**
 * @file
 * Bandwidth-conserving DRAM timing model.
 *
 * The controller serves requests in arrival order: each access pays a
 * fixed access latency plus a transfer time of bytes / bytes_per_cycle,
 * and the channel cannot start a new transfer before the previous one
 * finished. With the Table II configuration (16 GB/s at 1 GHz) the
 * channel moves 16 bytes per cycle.
 */

#ifndef SNPU_MEM_DRAM_MODEL_HH
#define SNPU_MEM_DRAM_MODEL_HH

#include <algorithm>
#include <cstdint>

#include "mem/mem_types.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snpu
{

/** DRAM timing parameters. */
struct DramParams
{
    /** Sustained channel bandwidth in bytes per cycle. */
    double bytes_per_cycle = 16.0;
    /** Fixed access latency (row activation + CAS + on-chip wires). */
    Tick access_latency = 100;
};

/**
 * Timing-only DRAM channel. Functional data lives in PhysMem; this
 * class answers "when does this access complete?".
 */
class DramModel
{
  public:
    DramModel(stats::Group &stats, DramParams params = {});

    /**
     * Serve an access that arrives at @p when. Inline: every L2 miss
     * and uncached DMA packet lands here.
     * @return the tick at which the last byte transfers.
     */
    Tick
    access(Tick when, std::uint32_t bytes, MemOp op)
    {
        if (bytes == 0) [[unlikely]]
            panic("zero-byte DRAM access");

        if (op == MemOp::read)
            ++reads;
        else
            ++writes;
        bytes_moved += bytes;

        const Tick start = std::max(when, next_free);
        queue_delay.sample(static_cast<double>(start - when));

        // Transfer time with sub-cycle carry so long streams achieve
        // the exact configured bandwidth.
        carry_bytes += static_cast<double>(bytes);
        Tick transfer =
            static_cast<Tick>(carry_bytes / params.bytes_per_cycle);
        if (transfer == 0)
            transfer = 1;
        carry_bytes -=
            static_cast<double>(transfer) * params.bytes_per_cycle;
        if (carry_bytes < 0)
            carry_bytes = 0;

        next_free = start + transfer;
        busy_cycles += transfer;
        return start + params.access_latency + transfer;
    }

    /** First tick at which the channel is free again. */
    Tick nextFree() const { return next_free; }

    /** Forget all queueing state (between experiments). */
    void reset() { next_free = 0; carry_bytes = 0.0; }

    /**
     * Cumulative channel occupancy in transfer cycles — an odometer
     * (monotonic, deliberately not a stat and survives reset()).
     * Callers measure an operation's occupancy as a delta.
     */
    Tick busyCycles() const { return busy_cycles; }

    /**
     * Re-arm the channel as busy until @p free_at. The memoization
     * bracket uses this to restore the channel backlog it drained:
     * the op's recorded occupancy is charged back in one piece.
     */
    void rebase(Tick free_at)
    {
        next_free = std::max(next_free, free_at);
    }

    std::uint64_t totalBytes() const
    {
        return static_cast<std::uint64_t>(bytes_moved.value());
    }

  private:
    DramParams params;
    Tick next_free = 0;
    /** Fractional-cycle accumulator so bandwidth is exact. */
    double carry_bytes = 0.0;
    /** Odometer of transfer cycles (see busyCycles()). */
    Tick busy_cycles = 0;

    stats::Scalar reads;
    stats::Scalar writes;
    stats::Scalar bytes_moved;
    stats::Average queue_delay;
};

} // namespace snpu

#endif // SNPU_MEM_DRAM_MODEL_HH
