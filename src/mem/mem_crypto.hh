/**
 * @file
 * Memory encryption engine (§VII "Memory Encryption"): the
 * counter-mode DRAM protection that encrypted NPU TEEs (TNPU, MGX,
 * GuardNN, Securator) layer under the memory controller. sNPU is
 * explicitly complementary to it — this module exists to quantify
 * the combination.
 *
 * Timing model: every DRAM-side line pays the counter-mode rule of
 * mem/counter_cache.hh — the pipelined AES engine's latency, plus
 * one extra DRAM access when the line's page misses in the counter
 * cache. Integrity uses the NPU-friendly tree-less scheme of TNPU
 * (per-region versioning), so no tree-walk traffic is modeled.
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
struct MemCryptoParams : CounterModeParams
{
    bool enabled = false;
};

/**
 * The engine. MemSystem consults it on the DRAM side of every
 * miss/uncached access; it returns the extra cycles the access pays.
 */
class MemCryptoEngine
{
  public:
    MemCryptoEngine(stats::Group &stats, MemCryptoParams params = {});

    bool enabled() const { return _enabled; }

    /** Extra latency for a DRAM-side access to @p paddr's line. */
    Tick
    accessPenalty(Addr paddr)
    {
        if (!_enabled)
            return 0;
        return timing.charge(paddr / line_bytes * line_bytes,
                             line_bytes);
    }

    /** Drop all cached counter lines (timing canonicalization). */
    void resetTiming() { timing.invalidateAll(); }

    std::uint64_t counterMisses() const { return timing.misses(); }

  private:
    bool _enabled;
    CounterModeTiming timing;
};

} // namespace snpu

#endif // SNPU_MEM_MEM_CRYPTO_HH
