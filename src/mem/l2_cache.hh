/**
 * @file
 * Shared banked L2 cache timing model (2 MiB, 8 banks in the Table II
 * configuration). Tags are tracked functionally; data bytes live in
 * PhysMem, so the cache only decides hit/miss latency and generates
 * write-back traffic toward DRAM.
 */

#ifndef SNPU_MEM_L2_CACHE_HH
#define SNPU_MEM_L2_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/dram_model.hh"
#include "mem/mem_crypto.hh"
#include "mem/mem_types.hh"
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
    Tick hit_latency = 20;
    /** Bank busy time per line access (throughput limiter). */
    Tick bank_cycle = 2;
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
    L2Cache(stats::Group &stats, DramModel &dram, L2Params params = {},
            MemCryptoEngine *crypto = nullptr);

    /**
     * Serve a line-granular access arriving at @p when.
     * @p req.bytes may span multiple lines; each line is looked up.
     * @return completion tick of the last line.
     */
    MemResult access(Tick when, const MemRequest &req);

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
     * on the set's first touch after invalidateAll().
     */
    struct SetState
    {
        std::uint64_t epoch = 0;
        std::uint64_t valid = 0;
        std::uint64_t dirty = 0;
    };

    Tick accessLine(Tick when, Addr line_addr, MemOp op);

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
