/**
 * @file
 * Table II — SoC configuration used in the evaluation: prints the
 * simulator's actual constructed parameters so divergence from the
 * paper's setup is impossible to miss.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/soc.hh"
#include "json_writer.hh"
#include "sim/args.hh"

using namespace snpu;
using namespace snpu::bench;

int
main(int argc, char **argv)
{
    std::string json_path;
    ArgSpec("tab02_soc_config").json(&json_path).parse(argc, argv);

    banner("Table II", "SoC configuration used in the evaluation");

    Soc soc(makeSystem(SystemKind::snpu));
    const SocParams &p = soc.params();
    NpuCore &core = soc.npu().core(0);

    Table table({"parameter", "value"});
    table.row({"systolic array dimension (per tile)",
               std::to_string(p.systolic_dim)});
    table.row({"scratchpad size (per tile)",
               std::to_string(core.scratchpad().rows() *
                              core.scratchpad().rowBytes() / 1024) +
                   " KiB"});
    table.row({"accumulator size (per tile)",
               std::to_string(core.accumulator().rows() *
                              core.accumulator().rowBytes() / 1024) +
                   " KiB"});
    table.row({"# of accelerator tiles",
               std::to_string(soc.npu().tiles())});
    table.row({"mesh geometry",
               std::to_string(soc.npu().mesh().cols()) + " x " +
                   std::to_string(soc.npu().mesh().meshRows())});
    const L2Params l2;
    table.row({"shared L2 size",
               std::to_string(l2.size_bytes >> 20) + " MiB"});
    table.row({"shared L2 banks", std::to_string(l2.banks)});
    table.row({"DRAM bandwidth", num(p.dram_gbps, 0) + " GB/s"});
    table.row({"frequency", num(p.freq_ghz, 0) + " GHz"});
    table.row({"access control (sNPU)", "NPU Guarder"});
    table.row({"access control (TrustZone NPU)",
               "IOMMU, 32-entry IOTLB"});
    table.print();

    JsonReport report("tab02_soc_config");
    report.table("soc_config", table);
    return report.write(json_path) ? 0 : 1;
}
