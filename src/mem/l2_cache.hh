/**
 * @file
 * Shared banked 8-way L2 cache timing model (2 MiB, 8 banks in the
 * Table II configuration). Tags are tracked functionally; data bytes
 * live in PhysMem, so the cache only decides hit/miss latency and
 * generates write-back traffic toward DRAM.
 */

#ifndef SNPU_MEM_L2_CACHE_HH
#define SNPU_MEM_L2_CACHE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mem/dram_model.hh"
#include "mem/mem_crypto.hh"
#include "mem/mem_types.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snpu
{

/**
 * L2 geometry. The defaults are Table II's; the associativity is
 * fixed (L2Cache::ways), and only tests pick a smaller size or
 * another bank count.
 */
struct L2Params
{
    /** A whole number of 8-way sets. */
    std::uint64_t size_bytes = 2ULL << 20;
    /** At least one. */
    std::uint32_t banks = 8;
};

/**
 * 8-way set-associative write-back L2 with per-bank occupancy queues
 * and LRU replacement. The cache keeps no security-world state: the
 * secure/normal partition is enforced by MemSystem::access before a
 * request reaches the L2, so a line never needs a world tag and no
 * flush-on-switch is needed.
 *
 * Each set is one 64-byte host record: eight 32-bit line tags, a
 * recency list of way numbers, an epoch and the valid and dirty
 * masks, so a lookup touches one host cache line. Set and bank come
 * from a mask when their counts are powers of two.
 *
 * The inline line kernel (accessLines()) is the cache's only timed
 * path. It adds its stat increments to a caller-owned MemTally, and
 * each caller adds the tally to the stats once (commit()).
 */
class L2Cache
{
  public:
    /** Lookup latency: a hit completes after it, a miss then goes to
     *  DRAM. */
    static constexpr Tick hit_latency = 20;
    /** Bank busy time per line access (throughput limiter). */
    static constexpr Tick bank_cycle = 2;
    /** Ways per set: a set record holds eight tags, one nibble each
     *  in the recency list. */
    static constexpr std::uint32_t ways = 8;

    L2Cache(stats::Group &stats, DramModel &dram, L2Params params = {},
            MemCryptoEngine *crypto = nullptr);

    /**
     * The line kernel over every line of [@p paddr, @p paddr +
     * @p bytes), arriving at @p when: stat increments go to @p t.
     * @return the completion tick of the last line.
     */
    [[gnu::always_inline]] Tick
    accessLines(Tick when, Addr paddr, std::uint32_t bytes, MemOp op,
                MemTally &t)
    {
        if (bytes == 0) [[unlikely]]
            panic("zero-byte L2 access");
        const Addr last = (paddr + bytes - 1) / line_bytes;
        if (last > max_line) [[unlikely]]
            panic("L2 line 0x", std::hex, last,
                  " is beyond the 32-bit tag range");
        Tick done = when;
        for (Addr line = paddr / line_bytes; line <= last; ++line)
            done = std::max(done, accessLine(when, line, op, t));
        return done;
    }

    /**
     * Add @p t's L2 and DRAM increments to the stats. By value, so
     * the caller's tally never escapes and stays in registers through
     * the kernel loop.
     */
    void commit(MemTally t);

    /**
     * Drop all cached lines (write-backs are not simulated here) and
     * clear the bank occupancy, O(1): invalidation bumps the cache
     * epoch and a set's record counts only while its epoch matches.
     * The timing-memoization brackets call this around every cached
     * op, so it must not walk 4k sets each time.
     */
    void invalidateAll();

    std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(hit_count.value());
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(miss_count.value());
    }

  private:
    /** Largest line number a 32-bit tag holds (PAs below 256 GiB). */
    static constexpr Addr max_line = 0xffff'ffff;
    /** The recency list of a fresh set: way w at position w. */
    static constexpr std::uint32_t fresh_order = 0x7654'3210;

    /**
     * One set. Way w holds line tag[w] iff bit w of @c valid is set
     * and @c epoch matches the cache epoch; a stale record is reset
     * on the set's first touch after invalidateAll(). Nibble i of
     * @c order is the way used i-th most recently, over all eight
     * ways. A miss fills the lowest invalid way, so @c valid is a low
     * prefix and the valid ways lead the list in recency order; in a
     * full set the victim is the last nibble.
     */
    struct alignas(64) Set
    {
        std::uint32_t tag[ways] = {};
        std::uint64_t epoch = 0;
        std::uint32_t order = fresh_order;
        std::uint8_t valid = 0;
        std::uint8_t dirty = 0;
    };
    static_assert(sizeof(Set) == 64, "one host cache line per set");

    /**
     * The valid ways of @p s holding line @p tag, as a bit mask (at
     * most one bit: a line fills only on a miss). Two four-lane
     * compares, in GCC/Clang vector extensions.
     */
    static std::uint32_t
    matchWays(const Set &s, std::uint32_t tag)
    {
        using Lanes = std::uint32_t
            __attribute__((vector_size(4 * sizeof(std::uint32_t))));
        Lanes lo;
        Lanes hi;
        std::memcpy(&lo, s.tag, sizeof lo);
        std::memcpy(&hi, s.tag + 4, sizeof hi);
        const Lanes bits = ((lo == tag) & Lanes{1, 2, 4, 8}) |
                           ((hi == tag) & Lanes{16, 32, 64, 128});
        return (bits[0] | bits[1] | bits[2] | bits[3]) & s.valid;
    }

    /** @p order with way @p way moved to the front. */
    static std::uint32_t
    toFront(std::uint32_t order, std::uint32_t way)
    {
        // The lowest zero nibble of order ^ way-in-every-nibble is
        // way's position; the borrow trick flags it exactly.
        const std::uint32_t x = order ^ (way * 0x1111'1111u);
        const std::uint32_t zero = (x - 0x1111'1111u) & ~x & 0x8888'8888u;
        const std::uint32_t shift =
            static_cast<std::uint32_t>(std::countr_zero(zero)) & ~3u;
        const std::uint64_t wide = order;
        const std::uint64_t below =
            wide & ((std::uint64_t(1) << shift) - 1);
        const std::uint64_t above = wide >> (shift + 4) << (shift + 4);
        return static_cast<std::uint32_t>(above | below << 4 | way);
    }

    /**
     * Look up (and on a miss fill) line number @p line. Forced
     * inline: GCC otherwise keeps it out of line, and the packet
     * loops are measurably faster with the whole kernel in them.
     */
    [[gnu::always_inline]] Tick
    accessLine(Tick when, Addr line, MemOp op, MemTally &t)
    {
        const std::uint32_t set = static_cast<std::uint32_t>(
            set_mask ? line & set_mask : line % num_sets);
        const std::uint32_t bank = static_cast<std::uint32_t>(
            bank_mask ? line & bank_mask : line % params.banks);
        const std::uint32_t tag = static_cast<std::uint32_t>(line);

        // Bank arbitration: the access cannot start before the bank
        // frees.
        const Tick start = std::max(when, bank_free[bank]);
        bank_free[bank] = start + bank_cycle;

        Set &s = sets[set];
        if (s.epoch != epoch) {
            s.epoch = epoch;
            s.order = fresh_order;
            s.valid = 0;
            s.dirty = 0;
        }

        const std::uint32_t match = matchWays(s, tag);
        if (match) {
            const std::uint32_t way =
                static_cast<std::uint32_t>(std::countr_zero(match));
            ++t.l2_hits;
            // A stream's next packet often hits the line its last
            // packet ended in, which already leads the list.
            if ((s.order & 0xf) != way)
                s.order = toFront(s.order, way);
            if (op == MemOp::write)
                s.dirty |= static_cast<std::uint8_t>(match);
            return start + hit_latency;
        }

        // Miss: fill the first invalid way if there is one, else evict
        // the least recently used way, writing it back if dirty; then
        // fill from DRAM.
        ++t.l2_misses;
        const std::uint32_t filled =
            static_cast<std::uint32_t>(std::countr_one(s.valid));
        const std::uint32_t victim = filled < ways ? filled : s.order >> 28;
        const auto bit = static_cast<std::uint8_t>(1u << victim);
        Tick ready = start + hit_latency;
        if (s.dirty & bit) {
            ++t.l2_writebacks;
            Tick wb = dram.access(ready, line_bytes, MemOp::write, t);
            if (crypto)
                wb += crypto->accessPenalty(Addr(s.tag[victim]) *
                                            line_bytes);
            (void)wb; // write-back is off the critical path
        }
        ready = dram.access(ready, line_bytes, MemOp::read, t);
        if (crypto)
            ready += crypto->accessPenalty(line * line_bytes);

        s.valid |= bit;
        if (op == MemOp::write)
            s.dirty |= bit;
        else
            s.dirty &= static_cast<std::uint8_t>(~bit);
        s.tag[victim] = tag;
        s.order = toFront(s.order, victim);
        return ready;
    }

    L2Params params;
    DramModel &dram;
    /** Optional DRAM-side memory encryption engine. */
    MemCryptoEngine *crypto;
    std::uint32_t num_sets;
    /** num_sets - 1 / banks - 1 when a power of two, else 0 (use %). */
    std::uint32_t set_mask = 0;
    std::uint32_t bank_mask = 0;
    std::vector<Set> sets;             // num_sets
    std::vector<Tick> bank_free;       // per-bank next-free tick
    std::uint64_t epoch = 0;           // sets live iff epochs match

    stats::Scalar hit_count;
    stats::Scalar miss_count;
    stats::Scalar writebacks;
};

} // namespace snpu

#endif // SNPU_MEM_L2_CACHE_HH
