#include "mem/counter_cache.hh"

#include "mem/mem_types.hh"
#include "sim/logging.hh"

namespace snpu
{

CounterCache::CounterCache(std::uint32_t entries) : entries(entries)
{
    if (entries == 0)
        fatal("counter cache needs at least one entry");
}

bool
CounterCache::lookup(Addr page)
{
    Entry *victim = &entries[0];
    for (Entry &entry : entries) {
        if (entry.valid && entry.page == page) {
            entry.lru = ++clock;
            return true;
        }
        if (!entry.valid) {
            victim = &entry;
        } else if (victim->valid && entry.lru < victim->lru) {
            victim = &entry;
        }
    }
    victim->valid = true;
    victim->page = page;
    victim->lru = ++clock;
    return false;
}

void
CounterCache::invalidateAll()
{
    for (Entry &entry : entries)
        entry.valid = false;
}

struct CounterModeTiming::Exported
{
    Exported(stats::Group &g, const StatNames &names)
        : hits(g, names.hits, "counter cache hits"),
          misses(g, names.misses, names.misses_desc),
          blocks(g, names.blocks, names.blocks_desc)
    {
    }

    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar blocks;
};

CounterModeTiming::CounterModeTiming(const CounterModeParams &params,
                                     stats::Group *stats,
                                     const StatNames &names)
    : params(params), cache(params.counter_cache_entries)
{
    if (stats)
        exported = std::make_unique<Exported>(*stats, names);
}

CounterModeTiming::~CounterModeTiming() = default;

Tick
CounterModeTiming::charge(Addr paddr, std::uint32_t bytes)
{
    const Addr first_page = paddr / page_bytes;
    const Addr last_page = (paddr + bytes - 1) / page_bytes;
    std::uint64_t misses = 0;
    for (Addr page = first_page; page <= last_page; ++page)
        misses += cache.lookup(page) ? 0 : 1;
    const std::uint64_t hits = last_page - first_page + 1 - misses;
    n_hits += hits;
    n_misses += misses;
    if (exported) {
        exported->hits += static_cast<double>(hits);
        exported->misses += static_cast<double>(misses);
        exported->blocks +=
            static_cast<double>((bytes + line_bytes - 1) / line_bytes);
    }
    return params.engine_latency + misses * params.counter_miss_penalty;
}

} // namespace snpu
