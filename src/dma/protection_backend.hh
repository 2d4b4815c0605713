/**
 * @file
 * The protection seam on the NPU's DMA path: ProtectionBackend, the
 * translate/check interface the DMA engine drives once per request
 * or once per 64-byte packet, plus canonical per-backend statistics,
 * a uniform context-provisioning surface (beginContext/endContext),
 * a fault-probe site, and tracer attachment.
 *
 * The four backends (the closed table in core/protection_table.hh):
 *
 *  - passthrough : no protection (the "Normal NPU" baseline),
 *  - iommu       : per-packet IOTLB + page walker (the
 *                  "TrustZone NPU" baseline),
 *  - guarder     : per-request tile translation/checking registers
 *                  (the sNPU design),
 *  - crypto      : counter-mode encryption + MAC engine on the DMA
 *                  path (the GuardNN/SeDA-style alternative).
 */

#ifndef SNPU_DMA_PROTECTION_BACKEND_HH
#define SNPU_DMA_PROTECTION_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>

#include "mem/mem_types.hh"
#include "sim/fault_injector.hh"
#include "sim/stats.hh"
#include "sim/status.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace snpu
{

class NpuGuarder;

/** Granularity at which an access controller performs checks. */
enum class CheckGranularity : std::uint8_t
{
    /** Once per DMA request (NPU Guarder, crypto engine). */
    request,
    /** Once per 64-byte memory packet (IOMMU). */
    packet,
};

/** Result of a translation / permission check. */
struct Translation
{
    /** False when the access is denied. */
    bool ok = false;
    /** Translated physical address (valid when ok). */
    Addr paddr = 0;
    /**
     * Completion tick of the check: the earliest tick at which the
     * translated access may issue to memory (for ok results), or at
     * which the denial is known (for denials). This is a completion
     * tick, never the issue tick of a *later* event — and it must
     * never precede the tick passed to translate(). Every backend
     * honors this identically; the DMA engine asserts it.
     */
    Tick ready = 0;
};

/** A virtually-addressed DMA transfer as issued by the NPU. */
struct DmaRequest
{
    Addr vaddr = 0;
    std::uint32_t bytes = 0;
    MemOp op = MemOp::read;
    /** ID state of the issuing NPU core. */
    World world = World::normal;
};

/**
 * One task/tenant context as provisioned before dispatch: a
 * contiguous VA→PA window tagged with the owning world. How a
 * backend realizes it differs (page mappings, register windows,
 * region keys/versions) but every backend accepts the same shape.
 */
struct ProtectionContext
{
    Addr va_base = 0;
    Addr pa_base = 0;
    Addr bytes = 0;
    World world = World::normal;
};

/**
 * A named protection backend on the DMA path: the one interface the
 * DMA engine, NPU core, SoC, serve path, benches and CLI program
 * against. The SoC builds one per tile from the closed backend table
 * (core/protection_table.hh).
 *
 * translate() is invoked once per request when granularity() is
 * CheckGranularity::request, or once per packet otherwise; the engine
 * passes packet-sized sub-requests in the latter case.
 *
 * Statistics: every backend exports the same canonical counters —
 * "checks", "checked_bytes", "denials", "denied_bytes", "contexts" —
 * into the stats group it is built against (the SoC names it
 * "protection<tile>"), so any two backends can be diffed stat by
 * stat. Backend-specific extras (walk counts, counter-cache hits)
 * ride alongside under the same group. Constructed without a group
 * (unit tests), the counters still count but export nothing.
 */
class ProtectionBackend
{
  public:
    ProtectionBackend(std::string name, stats::Group *stats = nullptr);
    virtual ~ProtectionBackend();

    /** The table name ("iommu", "guarder", ...). */
    const std::string &name() const { return backend_name; }

    virtual CheckGranularity granularity() const = 0;

    /**
     * Translate and check [vaddr, vaddr+bytes) at time @p when.
     * The returned Translation::ready must be >= @p when (the DMA
     * engine asserts this).
     */
    virtual Translation translate(Tick when, Addr vaddr,
                                  std::uint32_t bytes, MemOp op,
                                  World world) = 0;

    /**
     * Extra completion cycles this backend charges a finished
     * transfer of @p bytes at @p paddr (crypto pipelines, MAC
     * generation/verification). The DMA engine calls this once per
     * request after the packet stream completes and delays the
     * transfer's completion by the returned amount. Access-control
     * backends charge nothing; encryption backends charge their
     * bandwidth cost here.
     */
    virtual Tick
    transferOverhead(Tick when, Addr paddr, std::uint32_t bytes,
                     MemOp op)
    {
        (void)when;
        (void)paddr;
        (void)bytes;
        (void)op;
        return 0;
    }

    /**
     * Install a context (map pages, program windows, key a region).
     * @p from_secure models the secure-configuration privilege; a
     * backend with nothing to enforce ignores it.
     */
    virtual Status beginContext(const ProtectionContext &ctx,
                                bool from_secure) = 0;

    /**
     * Tear the active context down (clear windows, flush TLBs,
     * retire region versions). Idempotent.
     */
    virtual Status endContext(bool from_secure) = 0;

    /**
     * Arm (or disarm with nullptr) the fault injector. The base
     * probe site is FaultSite::protection_check: an injected fault
     * makes translate() deny exactly like a failed check would.
     * (The guarder keeps its historical FaultSite::guarder_check.)
     */
    void armFaults(FaultInjector *inj) { faults = inj; }

    /**
     * Attach (or detach with nullptr) a trace sink, emitting as
     * @p who (the SoC uses "<name><tile>").
     */
    void attachTrace(TraceSink *sink, const std::string &who);

    /** Total translation/check operations performed (Fig 13b). */
    std::uint64_t checkCount() const { return n_checks; }

    /** Accesses denied by this backend. */
    std::uint64_t denyCount() const { return n_denials; }

    /**
     * Reset self-referential timing state (TLB contents, walker
     * occupancy, counter caches) to the canonical post-construction
     * state. Provisioned contexts, stats, and functional state stay.
     * The layer-timing cache brackets every memoized op with this;
     * backends with no hidden timing state keep the default nop.
     */
    virtual void canonicalizeTiming() {}

    /**
     * Fingerprint of everything about this backend that shapes op
     * timing: the name plus the timing parameters. Two canonicalized
     * backends with equal fingerprints (and equal context
     * fingerprints) time any DMA stream identically.
     */
    virtual std::uint64_t timingFingerprint() const;

    /**
     * Fingerprint of provisioned-context state that affects timing
     * of accesses within [va_base, va_base+bytes). Backends whose
     * canonicalized timing depends only on the VA stream return 0;
     * the IOMMU hashes the physical placement of the page-table
     * nodes backing the range (walk traffic depends on it, and it
     * varies with page-table allocation order).
     */
    virtual std::uint64_t contextFingerprint(Addr va_base, Addr bytes)
    {
        (void)va_base;
        (void)bytes;
        return 0;
    }

    /**
     * Kind-checked narrowing for the NPU Monitor, which programs
     * guarder register files directly. nullptr on other backends.
     */
    virtual NpuGuarder *asGuarder() { return nullptr; }

  protected:
    /** Count one check over @p bytes. */
    void recordCheck(std::uint32_t bytes);
    /** Count one denial of @p bytes (deny accounting is byte-aware). */
    void recordDeny(std::uint32_t bytes);
    /** Count one installed context. */
    void recordContext();
    /** True when an armed protection_check fault fires now. */
    bool injectedDenial(Tick when);

    FaultInjector *faults = nullptr;
    Tracer tracer;
    std::string trace_name;

  private:
    struct ExportedStats;

    std::string backend_name;
    std::uint64_t n_checks = 0;
    std::uint64_t n_denials = 0;
    std::unique_ptr<ExportedStats> exported;
};

/**
 * Identity translation with no checks: the unprotected baseline.
 * Still counts lookups (and the bytes/ops they cover) so all
 * backends report comparable stats.
 */
class PassThroughControl : public ProtectionBackend
{
  public:
    explicit PassThroughControl(stats::Group *stats = nullptr)
        : ProtectionBackend("passthrough", stats)
    {
    }

    CheckGranularity granularity() const override
    {
        return CheckGranularity::request;
    }

    Translation
    translate(Tick when, Addr vaddr, std::uint32_t bytes, MemOp op,
              World) override
    {
        recordCheck(bytes);
        if (injectedDenial(when)) {
            recordDeny(bytes);
            tracer.emit(when, TraceCategory::fault, trace_name,
                        "injected check fault: ",
                        op == MemOp::read ? "read" : "write", " of ",
                        bytes, " B denied");
            return Translation{false, 0, when};
        }
        return Translation{true, vaddr, when};
    }

    Status
    beginContext(const ProtectionContext &, bool) override
    {
        recordContext();
        return Status::ok();
    }

    Status endContext(bool) override { return Status::ok(); }
};

} // namespace snpu

#endif // SNPU_DMA_PROTECTION_BACKEND_HH
