/**
 * @file
 * Fig 18 — Hardware resource cost: additional FPGA resources (LUTs,
 * FFs, RAM bits) of each sNPU protection mechanism and of the
 * TrustZone NPU's IOMMU, from the analytic area model calibrated to
 * Gemmini-class FPGA syntheses.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/area_model.hh"
#include "json_writer.hh"
#include "sim/args.hh"

using namespace snpu;
using namespace snpu::bench;

int
main(int argc, char **argv)
{
    std::string json_path;
    ArgSpec("fig18_hw_cost").json(&json_path).parse(argc, argv);

    banner("Figure 18", "Additional FPGA resources per protection "
                        "mechanism (one tile)");

    AreaModel model(makeSystem(SystemKind::snpu));
    Table table({"config", "LUTs", "FFs", "RAM bits", "LUT +%",
                 "FF +%", "RAM +%"});
    for (const AreaReportRow &row : model.report()) {
        table.row({row.config, big(static_cast<std::uint64_t>(
                                   row.absolute.luts)),
                   big(static_cast<std::uint64_t>(row.absolute.ffs)),
                   big(static_cast<std::uint64_t>(
                       row.absolute.ram_bits)),
                   num(row.percent_over_baseline.luts) + "%",
                   num(row.percent_over_baseline.ffs) + "%",
                   num(row.percent_over_baseline.ram_bits) + "%"});
    }
    table.print();
    std::printf("(paper: sNPU adds about 1%% RAM via the S_Spad ID "
                "bits with negligible LUT/FF impact; the IOMMU's "
                "page walker and IOTLB CAM cost far more logic)\n");

    JsonReport report("fig18_hw_cost");
    report.table("hw_cost", table);
    return report.write(json_path) ? 0 : 1;
}
