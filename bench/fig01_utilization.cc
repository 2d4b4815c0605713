/**
 * @file
 * Fig 1 — Overall FLOPS utilization of different inference workloads
 * on a single NPU tile. The paper's observation: most workloads use
 * well under 50% of the peak MACs, motivating multi-tasking.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/systems.hh"
#include "json_writer.hh"
#include "sim/args.hh"

using namespace snpu;
using namespace snpu::bench;

int
main(int argc, char **argv)
{
    std::string json_path;
    ArgSpec("fig01_utilization").json(&json_path).parse(argc, argv);

    banner("Figure 1", "FLOPS utilization of inference workloads "
                       "(single tile, Table II config)");

    SystemOverrides overrides;
    overrides.model_scale = 2;

    Table table({"workload", "cycles", "ideal MACs", "utilization"});
    double total = 0;
    int count = 0;
    for (ModelId id : allModels()) {
        RunResult res = measureModel(SystemKind::normal_npu, id,
                                     overrides);
        if (!res.ok()) {
            std::printf("ERROR %s: %s\n", modelName(id),
                        res.error().c_str());
            return 1;
        }
        const double util = res.utilization(256) * 100.0;
        table.row({modelName(id), big(res.cycles), big(res.macs),
                   num(util, 1) + "%"});
        total += util;
        ++count;
    }
    table.print();
    std::printf("mean utilization: %.1f%%  (paper: most workloads "
                "below 50%%)\n",
                total / count);

    JsonReport report("fig01_utilization");
    report.table("utilization", table);
    report.metric("mean_utilization_pct", total / count);
    return report.write(json_path) ? 0 : 1;
}
