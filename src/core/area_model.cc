#include "core/area_model.hh"

#include "guarder/guarder.hh"
#include "npu/npu_core.hh"
#include "spad/scratchpad.hh"

namespace snpu
{

Resources &
Resources::operator+=(const Resources &other)
{
    luts += other.luts;
    ffs += other.ffs;
    ram_bits += other.ram_bits;
    return *this;
}

Resources
Resources::operator+(const Resources &other) const
{
    Resources out = *this;
    out += other;
    return out;
}

Resources
Resources::percentOver(const Resources &add) const
{
    Resources out;
    out.luts = luts > 0 ? 100.0 * add.luts / luts : 0.0;
    out.ffs = ffs > 0 ? 100.0 * add.ffs / ffs : 0.0;
    out.ram_bits = ram_bits > 0 ? 100.0 * add.ram_bits / ram_bits : 0.0;
    return out;
}

AreaModel::AreaModel(const SocParams &params)
    : cfg(params)
{
}

Resources
AreaModel::baselineTile() const
{
    // Gemmini-class 16x16 int8 tile on a Xilinx-style FPGA: PEs plus
    // the decoder, DMA engine, accumulator datapath, and control —
    // full-tile syntheses of this class land in the 60-90k LUT range.
    Resources r;
    const double pes = static_cast<double>(cfg.systolic_dim) *
                       cfg.systolic_dim;
    r.luts = pes * 200.0 + 30000.0;
    r.ffs = pes * 150.0 + 40000.0;
    // Local scratchpad + accumulator bits.
    const double spad_bits =
        static_cast<double>(cfg.spad_kib_per_tile) * 1024 * 8;
    const double acc_bits = static_cast<double>(NpuCoreParams{}.acc_rows) *
                            NpuCore::acc_row_bytes * 8;
    r.ram_bits = spad_bits + acc_bits;
    return r;
}

Resources
AreaModel::sReg() const
{
    // The Guarder's checking registers (base + limit + perm + world)
    // and translation registers (va + pa + size) over 40-bit physical
    // addresses, plus parallel range comparators and offset adders.
    constexpr double checking = NpuGuarder::checking_registers;
    constexpr double translation = NpuGuarder::translation_registers;
    Resources r;
    r.ffs = checking * (40 + 40 + 4) + translation * (40 + 40 + 32);
    r.luts = checking * 70 + translation * 100;
    r.ram_bits = 0;
    return r;
}

Resources
AreaModel::sSpad() const
{
    return sSpadMultiDomain(2);
}

Resources
AreaModel::sSpadMultiDomain(std::uint32_t domains) const
{
    // log2(domains) tag bits per local wordline, twice that per
    // accumulator wordline, plus the match/force-write rule logic on
    // the access path, whose compare widens with each bit past the
    // first.
    const double tag_bits = spadTagBits(domains);
    Resources r;
    const double spad_rows =
        static_cast<double>(cfg.spad_kib_per_tile) * 1024 / 16;
    r.ram_bits = spad_rows * tag_bits + 1024.0 * 2 * tag_bits;
    r.luts = 220.0 + 40.0 * (tag_bits - 1); // rule check + ID update mux
    r.ffs = 40.0 + 8.0 * (tag_bits - 1);
    return r;
}

Resources
AreaModel::sNoc() const
{
    // Peephole send/receive FSMs, identity compare, and the channel
    // lock map in each router controller.
    Resources r;
    r.luts = 450;
    r.ffs = 380;
    r.ram_bits = 10 * 8;   // lock map: owner + identity per channel
    return r;
}

Resources
AreaModel::iommu() const
{
    // Per-tile IOMMU: fully-associative IOTLB CAM, page-walker FSM,
    // and a 4 KiB walk cache. CAMs are LUT-hungry on FPGAs.
    Resources r;
    const double entries = cfg.iotlb_entries;
    r.luts = entries * 140 + 2600;   // CAM match + walker
    r.ffs = entries * 110 + 1400;
    r.ram_bits = 4096.0 * 8;         // walk cache
    return r;
}

std::vector<AreaReportRow>
AreaModel::report() const
{
    const Resources base = baselineTile();
    auto row = [&](const char *name, const Resources &extra) {
        AreaReportRow r;
        r.config = name;
        r.absolute = base + extra;
        r.percent_over_baseline = base.percentOver(extra);
        return r;
    };

    std::vector<AreaReportRow> rows;
    rows.push_back(row("baseline", Resources{}));
    rows.push_back(row("S_Reg", sReg()));
    rows.push_back(row("S_Spad", sSpad()));
    rows.push_back(row("S_NoC", sNoc()));
    rows.push_back(row("sNPU (all)", sReg() + sSpad() + sNoc()));
    rows.push_back(row("TrustZone (IOMMU)", iommu()));
    return rows;
}

} // namespace snpu
