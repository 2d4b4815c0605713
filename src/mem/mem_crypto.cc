#include "mem/mem_crypto.hh"

namespace snpu
{

MemCryptoEngine::MemCryptoEngine(stats::Group &stats,
                                 MemCryptoParams params)
    : params(params),
      counters(params.counter_cache_entries),
      hits(stats, "mee_counter_hits", "counter cache hits"),
      misses(stats, "mee_counter_misses", "counter cache misses"),
      blocks(stats, "mee_blocks", "lines through the AES engine")
{
}

Tick
MemCryptoEngine::accessPenalty(Addr paddr)
{
    if (!params.enabled)
        return 0;
    ++blocks;

    if (counters.lookup(paddr / page_bytes)) {
        ++hits;
        return params.engine_latency;
    }
    ++misses;
    return params.engine_latency + params.counter_miss_penalty;
}

} // namespace snpu
