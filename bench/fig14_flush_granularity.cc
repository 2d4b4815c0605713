/**
 * @file
 * Fig 14 — Normalized performance of ML workloads under different
 * scratchpad flushing granularities (the TrustZone-NPU temporal-
 * sharing strawman): tile, layer, and five layers. Flushing saves
 * and restores the live context, not just zeroing, so tile-granular
 * flushing costs ~25%.
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
    ArgSpec("fig14_flush_granularity").json(&json_path).parse(argc,
                                                              argv);

    banner("Figure 14",
           "Normalized execution time under flushing granularities");

    SystemOverrides overrides;
    overrides.model_scale = 2;

    Table table({"workload", "no flush", "5-layer", "layer", "tile",
                 "tile slowdown"});
    double worst = 0;
    for (ModelId id : allModels()) {
        RunResult none = measureModel(SystemKind::trustzone_npu, id,
                                      overrides,
                                      FlushGranularity::none);
        RunResult l5 = measureModel(SystemKind::trustzone_npu, id,
                                    overrides,
                                    FlushGranularity::layer5);
        RunResult layer = measureModel(SystemKind::trustzone_npu, id,
                                       overrides,
                                       FlushGranularity::layer);
        RunResult tile = measureModel(SystemKind::trustzone_npu, id,
                                      overrides,
                                      FlushGranularity::tile);
        if (!none.ok() || !l5.ok() || !layer.ok() || !tile.ok()) {
            std::printf("ERROR %s\n", modelName(id));
            return 1;
        }
        auto norm = [&](const RunResult &r) {
            return static_cast<double>(r.cycles) /
                   static_cast<double>(none.cycles);
        };
        table.row({modelName(id), "1.00", num(norm(l5)),
                   num(norm(layer)), num(norm(tile)),
                   num((norm(tile) - 1.0) * 100.0, 1) + "%"});
        worst = std::max(worst, (norm(tile) - 1.0) * 100.0);
    }
    table.print();
    std::printf("worst tile-granularity slowdown: %.1f%%  (paper: "
                "about 25%%)\n",
                worst);

    JsonReport report("fig14_flush_granularity");
    report.table("flush_granularity", table);
    report.metric("worst_tile_slowdown_pct", worst);
    return report.write(json_path) ? 0 : 1;
}
