/**
 * @file
 * Memory encryption engine (§VII "Memory Encryption"): the
 * counter-mode DRAM protection that encrypted NPU TEEs (TNPU, MGX,
 * GuardNN, Securator) layer under the memory controller. sNPU is
 * explicitly complementary to it — this module exists to quantify
 * the combination.
 *
 * Timing model: data leaving/entering DRAM passes a pipelined AES
 * engine (fixed latency, full throughput). Counter blocks are cached
 * per page in a small counter cache (mem/counter_cache.hh); a miss
 * costs one extra DRAM access to fetch the counter line. Integrity uses the NPU-friendly
 * tree-less scheme of TNPU (per-region versioning), so no
 * tree-walk traffic is modeled.
 *
 * Functional note: the simulator's backing store stays plaintext —
 * this engine models the *cost* of encryption; confidentiality
 * against physical attack is outside the simulated threat surface
 * (the paper's threat model excludes physical attacks for sNPU too).
 */

#ifndef SNPU_MEM_MEM_CRYPTO_HH
#define SNPU_MEM_MEM_CRYPTO_HH

#include <cstdint>

#include "mem/counter_cache.hh"
#include "mem/mem_types.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snpu
{

/** Encryption engine parameters. */
struct MemCryptoParams
{
    bool enabled = false;
    /** Pipelined AES latency added to each DRAM-side line access. */
    Tick engine_latency = 12;
    /** Counter cache entries (one per 4 KiB page). */
    std::uint32_t counter_cache_entries = 64;
    /** Cost of fetching a missing counter line from DRAM. */
    Tick counter_miss_penalty = 110;
};

/**
 * The engine. MemSystem consults it on the DRAM side of every
 * miss/uncached access; it returns the extra cycles the access pays.
 */
class MemCryptoEngine
{
  public:
    MemCryptoEngine(stats::Group &stats, MemCryptoParams params = {});

    bool enabled() const { return params.enabled; }

    /** Extra latency for a DRAM-side access to @p paddr. */
    Tick accessPenalty(Addr paddr);

    /** Drop all cached counter lines (timing canonicalization). */
    void resetTiming() { counters.invalidateAll(); }

    std::uint64_t counterHits() const
    {
        return static_cast<std::uint64_t>(hits.value());
    }
    std::uint64_t counterMisses() const
    {
        return static_cast<std::uint64_t>(misses.value());
    }

  private:
    MemCryptoParams params;
    CounterCache counters;

    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar blocks;
};

} // namespace snpu

#endif // SNPU_MEM_MEM_CRYPTO_HH
