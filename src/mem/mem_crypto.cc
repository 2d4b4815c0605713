#include "mem/mem_crypto.hh"

namespace snpu
{

MemCryptoEngine::MemCryptoEngine(stats::Group &stats,
                                 MemCryptoParams params)
    : _enabled(params.enabled),
      timing(params, &stats,
             {"mee_counter_hits", "mee_counter_misses",
              "counter cache misses", "mee_blocks",
              "lines through the AES engine"})
{
}

} // namespace snpu
