#include "mem/counter_cache.hh"

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

} // namespace snpu
