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

MemResult
L2Cache::access(Tick when, const MemRequest &req)
{
    const std::uint64_t hits_before =
        static_cast<std::uint64_t>(hit_count.value());
    MemResult result;
    result.done = accessTime(when, req);
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
