/**
 * @file
 * Page-keyed LRU counter cache for counter-mode memory encryption.
 * Both encryption timing paths use it: the DRAM-side engine
 * (mem/mem_crypto.hh) and the DMA-side crypto protection backend
 * (dma/crypto_backend.hh). Each entry holds the counter line of one
 * 4 KiB page; on a miss the caller pays its own DRAM fetch penalty
 * and keeps its own statistics.
 */

#ifndef SNPU_MEM_COUNTER_CACHE_HH
#define SNPU_MEM_COUNTER_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace snpu
{

class CounterCache
{
  public:
    /** @p entries must be positive (fatal otherwise). */
    explicit CounterCache(std::uint32_t entries);

    /**
     * Look up the counter line of @p page. A miss installs it in a
     * free entry, else over the least recently used one.
     * @return true on a hit.
     */
    bool lookup(Addr page);

    /** Drop every cached counter line (timing canonicalization). */
    void invalidateAll();

  private:
    struct Entry
    {
        bool valid = false;
        Addr page = 0;
        std::uint64_t lru = 0;
    };

    std::vector<Entry> entries;
    std::uint64_t clock = 0;
};

} // namespace snpu

#endif // SNPU_MEM_COUNTER_CACHE_HH
