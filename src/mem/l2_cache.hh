/**
 * @file
 * Shared banked L2 cache timing model (2 MiB, 8 banks in the Table II
 * configuration). Tags are tracked functionally; data bytes live in
 * PhysMem, so the cache only decides hit/miss latency and generates
 * write-back traffic toward DRAM.
 */

#ifndef SNPU_MEM_L2_CACHE_HH
#define SNPU_MEM_L2_CACHE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "mem/dram_model.hh"
#include "mem/mem_crypto.hh"
#include "mem/mem_types.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snpu
{

/** L2 geometry and timing parameters. */
struct L2Params
{
    std::uint64_t size_bytes = 2ULL << 20;
    std::uint32_t ways = 8;
    std::uint32_t banks = 8;
};

/**
 * Set-associative write-back L2 with per-bank occupancy queues and
 * LRU replacement. The cache keeps no security-world state: the
 * secure/normal partition is enforced by MemSystem::check before a
 * request reaches the L2, so a line never needs a world tag and no
 * flush-on-switch is needed.
 *
 * Tags are stored set-major: one {tag, lru} pair per way, contiguous
 * per set, plus one per-set {epoch, valid mask, dirty mask} record,
 * so an 8-way lookup reads 128 bytes of tags and one 24-byte record.
 * Set and bank come from a mask when their counts are powers of two.
 */
class L2Cache
{
  public:
    /** Lookup latency: a hit completes after it, a miss then goes to
     *  DRAM. */
    static constexpr Tick hit_latency = 20;
    /** Bank busy time per line access (throughput limiter). */
    static constexpr Tick bank_cycle = 2;

    L2Cache(stats::Group &stats, DramModel &dram, L2Params params = {},
            MemCryptoEngine *crypto = nullptr);

    /**
     * Serve a line-granular access arriving at @p when.
     * @p req.bytes may span multiple lines; each line is looked up.
     * @return completion tick of the last line, and whether the
     * access hit.
     */
    MemResult access(Tick when, const MemRequest &req);

    /**
     * access() without the hit flag: the completion tick only. The
     * DMA packet path calls this once per packet, so it and the line
     * lookup are inline.
     */
    Tick
    accessTime(Tick when, const MemRequest &req)
    {
        if (req.bytes == 0) [[unlikely]]
            panic("zero-byte L2 access");
        const Addr last = (req.paddr + req.bytes - 1) / line_bytes;
        Tick done = when;
        for (Addr tag = req.paddr / line_bytes; tag <= last; ++tag)
            done = std::max(done, accessLine(when, tag, req.op));
        return done;
    }

    /**
     * Drop all cached lines (write-backs are not simulated here) and
     * clear the bank occupancy, O(1): invalidation bumps the cache
     * epoch and a set's valid mask counts only while its epoch
     * matches. The timing-memoization brackets call this around
     * every cached op, so it must not walk 4k sets each time.
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
    /** One way of a set: its line tag and last-use stamp. */
    struct Way
    {
        Addr tag = 0;
        std::uint64_t lru = 0;
    };

    /**
     * Per-set validity. A way is valid iff its bit is set in @c valid
     * and @c epoch matches the cache epoch; a stale record is reset
     * on the set's first touch after invalidateAll(). A miss fills
     * the lowest invalid way and nothing clears a single bit, so
     * @c valid is always a low prefix: ways [0, countr_one(valid))
     * hold lines, and a way past it may carry a stale LRU stamp
     * from before the last epoch bump.
     */
    struct SetState
    {
        std::uint64_t epoch = 0;
        std::uint64_t valid = 0;
        std::uint64_t dirty = 0;
    };

    /**
     * Look up (and on a miss fill) line number @p tag. Forced inline:
     * GCC otherwise keeps it out of line, and the DMA packet loop is
     * measurably faster with the whole line kernel in it.
     */
    [[gnu::always_inline]] Tick
    accessLine(Tick when, Addr tag, MemOp op)
    {
        const std::uint32_t set = static_cast<std::uint32_t>(
            set_mask ? tag & set_mask : tag % num_sets);
        const std::uint32_t bank = static_cast<std::uint32_t>(
            bank_mask ? tag & bank_mask : tag % params.banks);

        // Bank arbitration: the access cannot start before the bank
        // frees.
        const Tick start = std::max(when, bank_free[bank]);
        bank_free[bank] = start + bank_cycle;

        SetState &state = sets[set];
        if (state.epoch != epoch)
            state = SetState{epoch, 0, 0};
        Way *base = &tags[static_cast<std::size_t>(set) * params.ways];

        // A hit scans the valid prefix's tags and nothing else.
        const std::uint32_t filled =
            static_cast<std::uint32_t>(std::countr_one(state.valid));
        for (std::uint32_t w = 0; w < filled; ++w) {
            if (base[w].tag == tag) {
                ++hit_count;
                base[w].lru = ++lru_clock;
                if (op == MemOp::write)
                    state.dirty |= std::uint64_t(1) << w;
                return start + hit_latency;
            }
        }

        // Miss: fill the first invalid way if there is one, else evict
        // the least recently used way (stamps are unique, and a full
        // set's stamps all postdate the epoch), writing it back if
        // dirty; then fill from DRAM. The oldest stamp is carried in a
        // register so the scan's loads do not wait on each other.
        ++miss_count;
        std::uint32_t victim = filled;
        if (victim >= params.ways) {
            victim = 0;
            std::uint64_t oldest = base[0].lru;
            for (std::uint32_t w = 1; w < params.ways; ++w) {
                if (base[w].lru < oldest) {
                    oldest = base[w].lru;
                    victim = w;
                }
            }
        }
        const std::uint64_t bit = std::uint64_t(1) << victim;
        Tick ready = start + hit_latency;
        if (state.dirty & bit) {
            ++writebacks;
            Tick wb = dram.access(ready, line_bytes, MemOp::write);
            if (crypto)
                wb += crypto->accessPenalty(base[victim].tag * line_bytes);
            (void)wb; // write-back is off the critical path
        }
        ready = dram.access(ready, line_bytes, MemOp::read);
        if (crypto)
            ready += crypto->accessPenalty(tag * line_bytes);

        state.valid |= bit;
        if (op == MemOp::write)
            state.dirty |= bit;
        else
            state.dirty &= ~bit;
        base[victim].tag = tag;
        base[victim].lru = ++lru_clock;
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
    std::vector<Way> tags;             // num_sets * ways, set-major
    std::vector<SetState> sets;        // num_sets
    std::vector<Tick> bank_free;       // per-bank next-free tick
    std::uint64_t lru_clock = 0;
    std::uint64_t epoch = 0;           // sets live iff epochs match

    stats::Scalar hit_count;
    stats::Scalar miss_count;
    stats::Scalar writebacks;
};

} // namespace snpu

#endif // SNPU_MEM_L2_CACHE_HH
