/**
 * @file
 * Whole-SoC configuration (Table II defaults) and the three
 * comparative systems of §VI: Normal NPU (no protection), TrustZone
 * NPU (IOMMU + flush/partition strawmen), and sNPU (Guarder +
 * Isolator + Monitor).
 */

#ifndef SNPU_CORE_SOC_CONFIG_HH
#define SNPU_CORE_SOC_CONFIG_HH

#include <cstdint>
#include <string>

#include "mem/mem_system.hh"
#include "npu/npu_device.hh"
#include "spad/flush_engine.hh"

namespace snpu
{

/** The comparative systems evaluated in the paper. */
enum class SystemKind : std::uint8_t
{
    normal_npu,     //!< no protection at all
    trustzone_npu,  //!< IOMMU S/NS + flush or partition strawmen
    snpu,           //!< Guarder + Isolator + Monitor
};

const char *systemKindName(SystemKind kind);

/** Full SoC parameters. */
struct SocParams
{
    SystemKind system = SystemKind::snpu;

    /** Table II. */
    std::uint32_t tiles = 10;
    std::uint32_t systolic_dim = 16;
    std::uint32_t spad_kib_per_tile = 256;
    std::uint32_t l2_mib = 2;
    std::uint32_t l2_banks = 8;
    double dram_gbps = 16.0;
    double freq_ghz = 1.0;

    /**
     * Protection backend on the DMA path, by its name in the backend
     * table (core/protection_table.hh): "passthrough", "iommu",
     * "guarder" or "crypto".
     */
    std::string protection = "guarder";
    std::uint32_t iotlb_entries = 32;
    /** Ablation: give the IOMMU a warm page-walk cache. */
    bool iommu_walk_cache = false;
    /** Counter-cache entries of the "crypto" backend (per tile). */
    std::uint32_t crypto_counter_entries = 64;
    /** SHA/HMAC unit throughput of the "crypto" backend. */
    double crypto_mac_bytes_per_cycle = 32.0;
    /** Parallel DMA channels per tile (the IOTLB ping-pong driver). */
    std::uint32_t dma_channels = 16;

    IsolationMode spad_isolation = IsolationMode::id_based;
    /** Fraction of the scratchpad given to the secure world under
     *  partition mode (0.25 / 0.5 / 0.75 in Fig 15). */
    double partition_secure_frac = 0.5;

    NocMode noc_mode = NocMode::peephole;
    FlushGranularity flush = FlushGranularity::none;

    /** Layer TNPU-style DRAM encryption under the controller
     *  (§VII "Memory Encryption" — complementary, for ablations). */
    bool memory_encryption = false;

    /** Skip functional byte movement for long sweeps. */
    bool timing_only = true;

    /**
     * Tamper knob for measured-boot experiments: when non-empty,
     * the named boot stage's image takes a one-byte corruption
     * (XOR 0xff at boot_corrupt_byte) before the chain runs during
     * Soc bring-up. Stage names: "rom-loader", "trusted-firmware",
     * "teeos+npu-monitor". The SoC still comes up (the monitor runs
     * the tampered firmware), but its measurement register diverges
     * from golden, so attestation denies every tenant at admission.
     * Excluded from socConfigFingerprint: a denied tenant executes
     * nothing, and an attestation-off run is timing-identical.
     */
    std::string boot_corrupt_stage;
    std::uint32_t boot_corrupt_byte = 0;

    /** Derived values. */
    std::uint32_t spadRows() const
    {
        return spad_kib_per_tile * 1024 / 16;
    }
    double dramBytesPerCycle() const { return dram_gbps / freq_ghz; }

    std::string describe() const;
};

/** Canonical parameters of each comparative system. */
SocParams makeSystem(SystemKind kind);

} // namespace snpu

#endif // SNPU_CORE_SOC_CONFIG_HH
