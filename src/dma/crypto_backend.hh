/**
 * @file
 * Memory-encryption protection backend ("crypto"): the GuardNN /
 * SeDA-style alternative to access control. Instead of translating
 * and checking DMA windows, the accelerator's memory traffic is
 * encrypted in counter mode and authenticated with a MAC; isolation
 * comes from keys and per-region versions rather than from denied
 * accesses.
 *
 * Timing model: the counter-mode rule of mem/counter_cache.hh, the
 * one the DRAM-side engine (mem/mem_crypto.hh) charges per line,
 * charged here per DMA transfer:
 *
 *  - a pipelined AES engine adds a fixed fill latency once per
 *    transfer (full throughput once primed);
 *  - counter blocks are cached per 4 KiB page; each missing page of
 *    a transfer costs one extra DRAM round trip to fetch the
 *    counter line;
 *  - integrity uses TNPU-style per-region versioning (no tree
 *    walk): each provisioned region carries a version that write
 *    transfers bump; the MAC binds data to (region, version);
 *  - the MAC itself is the SoC's HMAC-SHA256 unit (tee/sha256.hh
 *    holds its timing, tee/hmac.hh computes the functional region
 *    tags): a fixed finalize latency per transfer plus the
 *    throughput gap between the SHA pipeline and the DMA packet
 *    stream — this is the "crypto bandwidth" axis the evaluation
 *    contrasts with check-once translation;
 *  - the region/version lookup is a register compare and adds no
 *    cycle.
 *
 * Enforcement: a transfer that touches bytes outside every keyed
 * region would fail authentication on read (and corrupt silently on
 * write), so the engine refuses to stream it — translate() denies,
 * which keeps the serve path's provisioning contract identical to
 * the other backends.
 */

#ifndef SNPU_DMA_CRYPTO_BACKEND_HH
#define SNPU_DMA_CRYPTO_BACKEND_HH

#include <array>
#include <cstdint>

#include "dma/protection_backend.hh"
#include "mem/counter_cache.hh"
#include "tee/sha256.hh"

namespace snpu
{

/**
 * The counter-mode encryption + MAC backend. Request-granular: the
 * region/version check happens once per DMA request; the crypto
 * bandwidth cost is charged per transfer through transferOverhead().
 */
class CryptoBackend : public ProtectionBackend
{
  public:
    /** DMA packet stream rate the MAC unit shadows. */
    static constexpr double dma_bytes_per_cycle = 64.0;
    /** Concurrent keyed regions (one per provisioned context). */
    static constexpr std::uint32_t keyed_regions = 8;

    explicit CryptoBackend(stats::Group *stats);
    ~CryptoBackend() override;

    CheckGranularity granularity() const override
    {
        return CheckGranularity::request;
    }

    Translation translate(Tick when, Addr vaddr, std::uint32_t bytes,
                          MemOp op, World world) override;

    Tick transferOverhead(Tick when, Addr paddr, std::uint32_t bytes,
                          MemOp op) override;

    /**
     * Key a region: [pa_base, pa_base+bytes) gets a fresh version
     * and an HMAC-SHA256 region tag binding (base, size, world,
     * version) under the engine key. Requires secure privilege like
     * guarder window programming.
     */
    Status beginContext(const ProtectionContext &ctx,
                        bool from_secure) override;

    /** Retire the active regions (their versions die with them). */
    Status endContext(bool from_secure) override;

    /** Counter-cache contents are the only hidden timing state. */
    void canonicalizeTiming() override { timing.invalidateAll(); }

    /** Keyed-region geometry decides denials; versions are not
     *  timing-visible, so they stay out of the fingerprint. Memoized:
     *  beginContext() and endContext() clear the memo. */
    std::uint64_t contextFingerprint(Addr va_base,
                                     Addr bytes) override;

    std::uint64_t counterHits() const { return timing.hits(); }
    std::uint64_t counterMisses() const { return timing.misses(); }
    std::uint64_t versionBumps() const { return n_version_bumps; }

    /**
     * The active region tag (all-zero when no region is keyed),
     * computed on demand from the descriptor the region was keyed
     * with: the data path never reads it.
     */
    Digest regionTag(std::uint32_t slot = 0) const;

  private:
    struct KeyedRegion
    {
        bool valid = false;
        Addr base = 0;
        Addr size = 0;
        World world = World::normal;
        std::uint64_t version = 0;
        /** The version at keying, which the region tag binds. */
        std::uint64_t keyed_version = 0;
    };

    KeyedRegion *findRegion(Addr addr, std::uint32_t bytes);

    std::array<KeyedRegion, keyed_regions> regions;
    CounterModeTiming timing;
    std::uint64_t n_version_bumps = 0;
    std::uint64_t context_fp = 0; // contextFingerprint() memo
    bool context_fp_valid = false;

    /** Backend-specific exported stats (optional, like the base). */
    struct CryptoStats;
    std::unique_ptr<CryptoStats> cstats;
};

} // namespace snpu

#endif // SNPU_DMA_CRYPTO_BACKEND_HH
