/**
 * @file
 * The assembled SoC: memory system, per-tile access controllers,
 * NPU device, and (for sNPU) the NPU Monitor. This is the top-level
 * object examples and benches construct; everything below it is
 * reachable through accessors for tests.
 */

#ifndef SNPU_CORE_SOC_HH
#define SNPU_CORE_SOC_HH

#include <memory>
#include <vector>

#include "core/soc_config.hh"
#include "dma/protection_backend.hh"
#include "guarder/guarder.hh"
#include "iommu/iommu.hh"
#include "iommu/page_table.hh"
#include "mem/mem_system.hh"
#include "npu/npu_device.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "tee/monitor/npu_monitor.hh"
#include "tee/secure_boot.hh"

namespace snpu
{

/**
 * The measured-boot chain of a SoC built from @p params: synthetic
 * but deterministic firmware images (rom-loader, trusted-firmware,
 * teeos+npu-monitor), a pure function of the SoC configuration so
 * every SoC with the same params boots to the same golden
 * measurement — which is what lets a fleet controller hold one
 * reference value for a homogeneous fleet. Applies the
 * SocParams::boot_corrupt_stage tamper knob before returning.
 */
BootChain makeBootChain(const SocParams &params);

/** What measured boot of one configuration yields. */
struct MeasuredBoot
{
    /** The chain's goldenMeasurement() (tamper knob never moves it). */
    Digest golden{};
    /** The chain's boot() outcome, tamper knob applied. */
    BootReport report;
};

/**
 * makeBootChain(params), booted once per process: the chain is a
 * pure function of (socConfigFingerprint(params), boot_corrupt_stage,
 * boot_corrupt_byte), so its outcome is memoized on exactly that
 * triple behind a mutex and shared by every SoC and fleet controller
 * built from an equal configuration. An unknown tamper stage throws
 * FatalError, as makeBootChain does, and memoizes nothing.
 */
std::shared_ptr<const MeasuredBoot> measuredBoot(const SocParams &params);

/**
 * The sealed key every simulated NPU Monitor holds (a per-platform
 * fuse constant on real silicon). Shared between Soc bring-up and
 * the fleet controller's re-attestation service, which must derive
 * the same attest key as the monitors it challenges.
 */
AesKey monitorSealedKey();

/** The system-on-chip. */
class Soc
{
  public:
    explicit Soc(SocParams params = makeSystem(SystemKind::snpu));

    const SocParams &params() const { return cfg; }
    stats::Group &stats() { return stat_group; }

    /**
     * Registry aggregating every stats tree this SoC owns (currently
     * the one rooted at stats()). Drives the machine-readable dump:
     * soc.registry().dumpJson(os) emits the whole hierarchy.
     */
    stats::Registry &registry() { return stat_registry; }

    MemSystem &mem() { return *mem_system; }
    NpuDevice &npu() { return *device; }

    /**
     * Protection backend of tile @p core — the uniform seam every
     * caller programs against: beginContext() / endContext(),
     * canonical stats. SocParams::protection names its row of the
     * backend table.
     */
    ProtectionBackend &protection(std::uint32_t core);

    /** Page table shared by page-table backends ("iommu" tiles). */
    PageTable &pageTable();

    /** The NPU Monitor (sNPU system only). */
    NpuMonitor &monitor();

    bool hasMonitor() const { return npu_monitor != nullptr; }

    /**
     * The measured-boot outcome of bring-up (sNPU system only;
     * default-constructed otherwise). Boot runs the chain from
     * makeBootChain(params()): a tampered stage halts secure boot
     * and leaves a diverged measurement register — the SoC still
     * constructs (the simulation must be able to model a compromised
     * platform), but attestation at serving admission denies it.
     */
    const BootReport &bootReport() const { return boot_report; }

    /**
     * The measurement register a clean boot of this configuration
     * produces (golden reference for attestation verifiers).
     */
    const Digest &goldenBootMeasurement() const { return golden_mr; }

    /**
     * Driver-visible world control. On the Normal NPU there is no
     * enforcement: the (untrusted) driver can flip core worlds at
     * will — this models the missing check the attacks exploit. On
     * TrustZone/sNPU systems the request needs secure privilege.
     */
    bool driverSetCoreWorld(std::uint32_t core, World w,
                            const SecureContext &ctx);

    /**
     * Arm (or disarm with nullptr) a fault injector on every layer:
     * each core (scratchpads, DMA), each protection backend, the NoC
     * fabric, and the monitor when present. With no injector armed every
     * hook site is a null-pointer check — zero simulation overhead.
     */
    void armFaults(FaultInjector *inj);

    /**
     * The currently armed fault injector (nullptr when none). The
     * layer-timing cache checks this: any armed plan bypasses
     * memoization so injected faults land on a live execution.
     */
    FaultInjector *armedFaults() const { return fault_injector; }

    /**
     * Attach (or detach with nullptr) a trace sink to every layer:
     * each core (which fans out to its scratchpads and DMA engine),
     * each protection backend ("<name><i>"), the NoC fabric ("noc"), the
     * global scratchpad ("global_spad"), and the monitor when
     * present ("monitor"). With no sink attached every emission
     * site is a single branch — zero simulation overhead.
     */
    void attachTrace(TraceSink *sink);

    /** The currently attached sink (nullptr when tracing is off). */
    TraceSink *traceSink() const { return trace_sink; }

  private:
    SocParams cfg;
    stats::Group stat_group;
    stats::Registry stat_registry;
    std::unique_ptr<MemSystem> mem_system;
    std::unique_ptr<PageTable> page_table;
    /** Per-tile child groups ("protection<i>") keeping each
     *  backend's stat names unique in the tree. */
    std::vector<std::unique_ptr<stats::Group>> control_groups;
    std::vector<std::unique_ptr<ProtectionBackend>> controls;
    std::vector<NpuGuarder *> guarders; // narrowed aliases (monitor)
    std::unique_ptr<NpuDevice> device;
    std::unique_ptr<NpuMonitor> npu_monitor;
    BootReport boot_report;
    Digest golden_mr{};
    TraceSink *trace_sink = nullptr;
    FaultInjector *fault_injector = nullptr;
};

} // namespace snpu

#endif // SNPU_CORE_SOC_HH
