#include "mem/l2_cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace snpu
{

L2Cache::L2Cache(stats::Group &stats, DramModel &dram, L2Params params,
                 MemCryptoEngine *crypto)
    : params(params), dram(dram), crypto(crypto),
      num_sets(0),
      hit_count(stats, "l2_hits", "L2 line hits"),
      miss_count(stats, "l2_misses", "L2 line misses"),
      writebacks(stats, "l2_writebacks", "dirty lines written back")
{
    const std::uint64_t num_lines = params.size_bytes / line_bytes;
    // Valid and dirty state are one 64-bit mask per set.
    if (num_lines == 0 || params.ways == 0 || params.ways > 64 ||
        num_lines % params.ways != 0)
        fatal("invalid L2 geometry");
    num_sets = static_cast<std::uint32_t>(num_lines / params.ways);
    if (std::has_single_bit(num_sets))
        set_mask = num_sets - 1;
    if (std::has_single_bit(params.banks))
        bank_mask = params.banks - 1;
    tags.resize(num_lines);
    sets.resize(num_sets);
    bank_free.assign(params.banks, 0);
}

Tick
L2Cache::accessLine(Tick when, Addr line_addr, MemOp op)
{
    const Addr tag = line_addr / line_bytes;
    const std::uint32_t set = static_cast<std::uint32_t>(
        set_mask ? tag & set_mask : tag % num_sets);
    const std::uint32_t bank = static_cast<std::uint32_t>(
        bank_mask ? tag & bank_mask : tag % params.banks);

    // Bank arbitration: the access cannot start before the bank frees.
    const Tick start = std::max(when, bank_free[bank]);
    bank_free[bank] = start + params.bank_cycle;

    SetState &state = sets[set];
    if (state.epoch != epoch)
        state = SetState{epoch, 0, 0};
    Way *base = &tags[static_cast<std::size_t>(set) * params.ways];

    // Lookup, tracking the least recently used way as it goes.
    std::uint32_t lru_way = 0;
    for (std::uint32_t w = 0; w < params.ways; ++w) {
        if (((state.valid >> w) & 1) && base[w].tag == tag) {
            ++hit_count;
            base[w].lru = ++lru_clock;
            if (op == MemOp::write)
                state.dirty |= std::uint64_t(1) << w;
            return start + params.hit_latency;
        }
        if (base[w].lru < base[lru_way].lru)
            lru_way = w;
    }

    // Miss: fill an invalid way if there is one, else evict the LRU
    // way (writing it back if dirty), then fill from DRAM.
    ++miss_count;
    const std::uint32_t first_free =
        static_cast<std::uint32_t>(std::countr_one(state.valid));
    const std::uint32_t victim =
        first_free < params.ways ? first_free : lru_way;
    const std::uint64_t bit = std::uint64_t(1) << victim;
    Tick ready = start + params.hit_latency;
    if (state.dirty & bit) {
        ++writebacks;
        Tick wb = dram.access(ready, line_bytes, MemOp::write);
        if (crypto)
            wb += crypto->accessPenalty(base[victim].tag * line_bytes);
        (void)wb; // write-back is off the critical path
    }
    ready = dram.access(ready, line_bytes, MemOp::read);
    if (crypto)
        ready += crypto->accessPenalty(line_addr);

    state.valid |= bit;
    if (op == MemOp::write)
        state.dirty |= bit;
    else
        state.dirty &= ~bit;
    base[victim].tag = tag;
    base[victim].lru = ++lru_clock;
    return ready;
}

MemResult
L2Cache::access(Tick when, const MemRequest &req)
{
    if (req.bytes == 0)
        panic("zero-byte L2 access");

    const std::uint64_t hits_before =
        static_cast<std::uint64_t>(hit_count.value());

    Addr first = req.paddr / line_bytes * line_bytes;
    Addr last = (req.paddr + req.bytes - 1) / line_bytes * line_bytes;
    Tick done = when;
    for (Addr line_addr = first; line_addr <= last;
         line_addr += line_bytes) {
        done = std::max(done,
                        accessLine(when, line_addr, req.op));
    }

    MemResult result;
    result.done = done;
    result.ok = true;
    result.l2_hit =
        static_cast<std::uint64_t>(miss_count.value()) == 0 ||
        static_cast<std::uint64_t>(hit_count.value()) > hits_before;
    return result;
}

void
L2Cache::invalidateAll()
{
    ++epoch;
    std::fill(bank_free.begin(), bank_free.end(), 0);
}

} // namespace snpu
