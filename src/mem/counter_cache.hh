/**
 * @file
 * Counter-mode memory encryption timing, written once for both
 * encryption paths: the DRAM-side engine (mem/mem_crypto.hh) charges
 * it per 64-byte line, the DMA-side crypto protection backend
 * (dma/crypto_backend.hh) per transfer. CounterCache is the
 * page-keyed LRU cache of counter lines; CounterModeTiming is the
 * latency rule built on it.
 */

#ifndef SNPU_MEM_COUNTER_CACHE_HH
#define SNPU_MEM_COUNTER_CACHE_HH

#include <array>
#include <cstdint>
#include <memory>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace snpu
{

class CounterCache
{
  public:
    /** Counter lines held (one per 4 KiB page). */
    static constexpr std::uint32_t entries = 64;

    /**
     * Look up the counter line of @p page. A miss installs it in a
     * free entry, else over the least recently used one.
     * @return true on a hit.
     */
    bool lookup(Addr page);

    /**
     * Drop every cached counter line (timing canonicalization). An
     * already-empty cache returns at once: the timing bracket calls
     * this around every memoized op, almost always on an empty cache.
     */
    void invalidateAll();

  private:
    struct Entry
    {
        bool valid = false;
        Addr page = 0;
        std::uint64_t lru = 0;
    };

    std::array<Entry, entries> lines{};
    std::uint64_t clock = 0;
    /** Valid entries in @c lines. */
    std::uint32_t n_valid = 0;
};

/**
 * The counter-mode timing rule: streaming a byte range through the
 * pipelined AES engine costs its fill latency once (full throughput
 * afterwards) plus one counter-line fetch from DRAM for every 4 KiB
 * page whose counter line misses in the cache. Counts the 64-byte
 * blocks streamed and the counter hits and misses; given a stats
 * group, also exports the three counts (hits, misses, blocks, in
 * that order) under the caller's names.
 */
class CounterModeTiming
{
  public:
    /** Pipelined AES fill latency, charged once per stream. */
    static constexpr Tick engine_latency = 12;
    /** Cost of fetching a missing counter line from DRAM. */
    static constexpr Tick counter_miss_penalty = 110;

    /** Name (and description) of each exported count. */
    struct StatNames
    {
        const char *hits;
        const char *misses;
        const char *misses_desc;
        const char *blocks;
        const char *blocks_desc;
    };

    CounterModeTiming(stats::Group *stats, const StatNames &names);
    ~CounterModeTiming();

    /** Cycles to stream [paddr, paddr+bytes); @p bytes > 0. */
    Tick charge(Addr paddr, std::uint32_t bytes);

    /** Drop every cached counter line (timing canonicalization). */
    void invalidateAll() { cache.invalidateAll(); }

    std::uint64_t hits() const { return n_hits; }
    std::uint64_t misses() const { return n_misses; }

  private:
    struct Exported;

    CounterCache cache;
    std::uint64_t n_hits = 0;
    std::uint64_t n_misses = 0;
    std::unique_ptr<Exported> exported;
};

} // namespace snpu

#endif // SNPU_MEM_COUNTER_CACHE_HH
