/**
 * @file
 * Fig 17 — NoC application test: end-to-end multi-core (4-tile
 * pipeline) performance of the DNN workloads with the software NoC
 * versus the peephole NoC, normalized to the unauthorized NoC.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/systems.hh"
#include "core/task_runner.hh"
#include "json_writer.hh"
#include "sim/args.hh"

using namespace snpu;
using namespace snpu::bench;

namespace
{

Tick
pipelineCycles(ModelId id, NocMode mode, std::uint32_t scale)
{
    auto soc = buildSoc(SystemKind::snpu);
    TaskRunner runner(*soc);
    NpuTask task = NpuTask::fromModel(id);
    task.model = task.model.scaled(scale);
    // Layer-per-core mapping: every layer boundary crosses the NoC
    // (the paper's mapping of network levels onto cores).
    PipelineResult res = runner.runPipeline(
        task, {0, 1, 2, 3}, mode,
        static_cast<std::uint32_t>(task.model.layers.size()));
    if (!res.ok()) {
        std::fprintf(stderr, "pipeline failed for %s (%s): %s\n",
                     modelName(id), nocModeName(mode),
                     res.error().c_str());
        std::exit(1);
    }
    return res.cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    ArgSpec("fig17_noc_app").json(&json_path).parse(argc, argv);

    banner("Figure 17", "Multi-core (4-tile pipeline) performance "
                        "by NoC method, normalized to unauthorized");

    const std::uint32_t scale = 1;
    Table table({"workload", "software NoC", "peephole NoC",
                 "peephole gain over software"});
    double total_gain = 0;
    int count = 0;
    for (ModelId id : allModels()) {
        const Tick unauth =
            pipelineCycles(id, NocMode::unauthorized, scale);
        const Tick sw = pipelineCycles(id, NocMode::software, scale);
        const Tick peephole =
            pipelineCycles(id, NocMode::peephole, scale);

        const double sw_norm =
            static_cast<double>(sw) / static_cast<double>(unauth);
        const double ph_norm = static_cast<double>(peephole) /
                               static_cast<double>(unauth);
        const double gain = (1.0 - static_cast<double>(peephole) /
                                       static_cast<double>(sw)) *
                            100.0;
        table.row({modelName(id), num(sw_norm), num(ph_norm, 3),
                   num(gain, 1) + "%"});
        total_gain += gain;
        ++count;
    }
    table.print();
    std::printf("mean reduction in execution time vs software NoC: "
                "%.1f%%  (paper: nearly 20%%)\n",
                total_gain / count);

    JsonReport report("fig17_noc_app");
    report.table("pipeline_noc", table);
    report.metric("mean_gain_pct", total_gain / count);
    return report.write(json_path) ? 0 : 1;
}
