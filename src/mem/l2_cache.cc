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
    if (num_lines == 0 || num_lines % ways != 0 || params.banks == 0)
        fatal("invalid L2 geometry");
    num_sets = static_cast<std::uint32_t>(num_lines / ways);
    if (std::has_single_bit(num_sets))
        set_mask = num_sets - 1;
    if (std::has_single_bit(params.banks))
        bank_mask = params.banks - 1;
    sets.resize(num_sets);
    bank_free.assign(params.banks, 0);
}

void
L2Cache::commit(MemTally t)
{
    hit_count += static_cast<double>(t.l2_hits);
    miss_count += static_cast<double>(t.l2_misses);
    writebacks += static_cast<double>(t.l2_writebacks);
    dram.commit(t);
}

void
L2Cache::invalidateAll()
{
    ++epoch;
    std::fill(bank_free.begin(), bank_free.end(), 0);
}

} // namespace snpu
