/**
 * @file
 * Analytic FPGA resource model for Fig 18. Baseline tile resources
 * are calibrated to published Gemmini-class 16x16 FPGA syntheses;
 * each protection mechanism adds structures whose LUT/FF/RAM-bit
 * counts follow from their register and memory geometry:
 *
 *  - S_Reg  : Guarder checking + translation register files and
 *             their comparators;
 *  - S_Spad : 1 ID bit per local-scratchpad wordline and 2 bits per
 *             accumulator wordline, plus the rule-check logic;
 *  - S_NoC  : peephole send/receive FSM and channel-lock map per
 *             router;
 *  - IOMMU  : IOTLB CAM, page-walker FSM, and walk cache (the
 *             TrustZone NPU's cost).
 */

#ifndef SNPU_CORE_AREA_MODEL_HH
#define SNPU_CORE_AREA_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/soc_config.hh"

namespace snpu
{

/** Resource triple, in FPGA primitive counts. */
struct Resources
{
    double luts = 0;
    double ffs = 0;
    double ram_bits = 0;

    Resources &operator+=(const Resources &other);
    Resources operator+(const Resources &other) const;

    /** Percentage deltas of @p add relative to this baseline. */
    Resources percentOver(const Resources &add) const;
};

/** One line of the Fig 18 table. */
struct AreaReportRow
{
    std::string config;
    Resources absolute;
    Resources percent_over_baseline;
};

/** The analytic model. */
class AreaModel
{
  public:
    explicit AreaModel(const SocParams &params);

    Resources baselineTile() const;
    Resources sReg() const;       //!< Guarder registers
    Resources sSpad() const;      //!< scratchpad ID bits
    Resources sNoc() const;       //!< peephole router extension
    Resources iommu() const;      //!< TrustZone NPU's IOMMU

    /**
     * §VII extension: per-wordline tags widened to log2(domains)
     * bits for multiple hardware secure domains (the hardware-cost
     * trade-off the discussion section calls out). sSpad() is its
     * two-domain case.
     */
    Resources sSpadMultiDomain(std::uint32_t domains) const;

    /** Full Fig 18 table: baseline, +S_Reg, +S_Spad, +S_NoC,
     *  sNPU total, and TrustZone (IOMMU). */
    std::vector<AreaReportRow> report() const;

  private:
    SocParams cfg;
};

} // namespace snpu

#endif // SNPU_CORE_AREA_MODEL_HH
