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
};

/**
 * Timing-only DRAM channel. Functional data lives in PhysMem; this
 * class answers "when does this access complete?".
 */
class DramModel
{
  public:
    /** Fixed access latency (row activation + CAS + on-chip wires). */
    static constexpr Tick access_latency = 100;

    DramModel(stats::Group &stats, DramParams params = {});

    /**
     * Serve an access that arrives at @p when, adding its reads,
     * writes, bytes and queue delay to @p t instead of the stats
     * (commit() adds them). Inline: every L2 miss lands here.
     * @return the tick at which the last byte transfers.
     */
    Tick
    access(Tick when, std::uint32_t bytes, MemOp op, MemTally &t)
    {
        if (bytes == 0) [[unlikely]]
            panic("zero-byte DRAM access");

        if (op == MemOp::read)
            ++t.dram_reads;
        else
            ++t.dram_writes;
        t.dram_bytes += bytes;

        const Tick start = std::max(when, next_free);
        const Tick wait = start - when;
        ++t.queue_count;
        t.queue_sum += wait;
        t.queue_min = std::min(t.queue_min, wait);
        t.queue_max = std::max(t.queue_max, wait);

        // Transfer time with sub-cycle carry so long streams achieve
        // the exact configured bandwidth. The step is a pure function
        // of (carry in, bytes), so the last result is reused when both
        // repeat: at a rate that divides the line size the carry stays
        // 0 and every line takes the memo instead of the division.
        if (carry_bytes != step_carry_in || bytes != step_bytes) {
            step_carry_in = carry_bytes;
            step_bytes = bytes;
            double carry = carry_bytes + static_cast<double>(bytes);
            step_transfer =
                static_cast<Tick>(carry / params.bytes_per_cycle);
            if (step_transfer == 0)
                step_transfer = 1;
            carry -= static_cast<double>(step_transfer) *
                     params.bytes_per_cycle;
            step_carry_out = carry < 0 ? 0.0 : carry;
        }
        const Tick transfer = step_transfer;
        carry_bytes = step_carry_out;

        next_free = start + transfer;
        busy_cycles += transfer;
        return start + access_latency + transfer;
    }

    /** Add the DRAM part of @p t to the stats. */
    void
    commit(const MemTally &t)
    {
        if (t.queue_count == 0)
            return;
        reads += static_cast<double>(t.dram_reads);
        writes += static_cast<double>(t.dram_writes);
        bytes_moved += static_cast<double>(t.dram_bytes);
        queue_delay.sampleMany(t.queue_count,
                               static_cast<double>(t.queue_sum),
                               static_cast<double>(t.queue_min),
                               static_cast<double>(t.queue_max));
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
    /**
     * The last channel step, (step_carry_in, step_bytes) ->
     * (step_transfer, step_carry_out). step_bytes 0 marks it empty
     * (a zero-byte access panics before the step).
     */
    double step_carry_in = 0.0;
    std::uint32_t step_bytes = 0;
    Tick step_transfer = 0;
    double step_carry_out = 0.0;
    /** Odometer of transfer cycles (see busyCycles()). */
    Tick busy_cycles = 0;

    stats::Scalar reads;
    stats::Scalar writes;
    stats::Scalar bytes_moved;
    stats::Average queue_delay;
};

} // namespace snpu

#endif // SNPU_MEM_DRAM_MODEL_HH
