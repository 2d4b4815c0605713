/**
 * @file
 * NPU Guarder (§IV-A): the sNPU access controller. It replaces the
 * IOMMU on the NPU's DMA path with two small register files inside
 * the NPU core, positioned before the DMA engine:
 *
 *  - checking registers: coarse-grained {range, permissions, world}
 *    entries describing which physical regions this NPU context may
 *    touch (the secure memory area is pre-allocated, so these are
 *    rarely reprogrammed);
 *  - translation registers: fine-grained, tile-level VA→PA *range*
 *    mappings updated by the driver/monitor before a calculation.
 *
 * A DMA request is translated and checked exactly once (request
 * level), so checking cost does not scale with the packet count —
 * this is the paper's energy and performance argument (Fig 13).
 *
 * Security rule: the register files are programmable only through
 * the secure-configuration interface (a dedicated instruction that
 * traps unless the issuing context is secure). Untrusted software
 * programs them *via* the NPU Monitor, which validates the windows.
 */

#ifndef SNPU_GUARDER_GUARDER_HH
#define SNPU_GUARDER_GUARDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dma/protection_backend.hh"
#include "mem/address_map.hh"
#include "sim/fault_injector.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace snpu
{

/** Permissions carried by a checking register. */
struct GuardPerm
{
    bool read = false;
    bool write = false;

    static GuardPerm ro() { return {true, false}; }
    static GuardPerm rw() { return {true, true}; }
};

/** One checking register: a physical window plus its authority. */
struct CheckingRegister
{
    bool valid = false;
    AddrRange range;
    GuardPerm perm;
    /** Minimum world required to use this window. */
    World world = World::normal;
};

/** One translation register: a tile-level VA→PA range mapping. */
struct TranslationRegister
{
    bool valid = false;
    Addr va_base = 0;
    Addr pa_base = 0;
    Addr size = 0;
};

/** Guarder geometry. */
struct GuarderParams
{
    std::uint32_t checking_registers = 8;
    std::uint32_t translation_registers = 16;
    /** Register-file compare latency (parallel comparators). */
    Tick check_latency = 0;
};

/**
 * The NPU Guarder, the table's backend "guarder". Request-granular
 * translation and checking; canonical checks/denials come from the
 * base, rejected programming attempts export alongside.
 *
 * Fault injection keeps the historical FaultSite::guarder_check site
 * (armed plans and traces stay compatible); an injected fault makes
 * translate() deny the request exactly like a missing window would.
 */
class NpuGuarder : public ProtectionBackend
{
  public:
    NpuGuarder(stats::Group &stats, GuarderParams params = {});

    CheckGranularity granularity() const override
    {
        return CheckGranularity::request;
    }

    Translation translate(Tick when, Addr vaddr, std::uint32_t bytes,
                          MemOp op, World world) override;

    /**
     * The monitor's context-setter path: clear the register files,
     * then program window 0 — one read-write checking window over
     * the context's physical slice tagged with its world, and one
     * translation register covering its VA range. Requires secure
     * privilege (rejections count as config violations).
     */
    Status beginContext(const ProtectionContext &ctx,
                        bool from_secure) override;

    /** Context teardown: clear every register (clearAll). */
    Status endContext(bool from_secure) override;

    NpuGuarder *asGuarder() override { return this; }

    /**
     * No hidden timing state: comparator latency is constant, so
     * canonicalizeTiming() keeps the base nop. The register-file
     * *contents* shape translation outcomes, so they fingerprint the
     * provisioned context instead.
     */
    std::uint64_t timingFingerprint() const override;
    std::uint64_t contextFingerprint(Addr va_base,
                                     Addr bytes) override;

    /**
     * Program a checking register. Only the secure configuration
     * path may call this; @p from_secure models that restriction.
     * @return false when rejected (insecure caller or bad slot).
     */
    bool setCheckingRegister(std::uint32_t slot, AddrRange range,
                             GuardPerm perm, World world,
                             bool from_secure);

    /** Program a translation register (same restriction). */
    bool setTranslationRegister(std::uint32_t slot, Addr va_base,
                                Addr pa_base, Addr size,
                                bool from_secure);

    /** Clear one translation register. */
    bool clearTranslationRegister(std::uint32_t slot, bool from_secure);

    /** Clear everything (context teardown). */
    bool clearAll(bool from_secure);

    std::uint32_t checkingCapacity() const
    {
        return static_cast<std::uint32_t>(checking.size());
    }
    std::uint32_t translationCapacity() const
    {
        return static_cast<std::uint32_t>(translation.size());
    }

    /** Rejected programming attempts from the non-secure side. */
    std::uint64_t configViolations() const
    {
        return static_cast<std::uint64_t>(config_violations.value());
    }

  private:
    const TranslationRegister *findTranslation(Addr vaddr,
                                               std::uint32_t bytes) const;
    const CheckingRegister *findWindow(Addr paddr, std::uint32_t bytes,
                                       MemOp op, World world) const;

    GuarderParams params;
    std::vector<CheckingRegister> checking;
    std::vector<TranslationRegister> translation;

    stats::Scalar config_violations;
};

} // namespace snpu

#endif // SNPU_GUARDER_GUARDER_HH
