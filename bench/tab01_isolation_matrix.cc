/**
 * @file
 * Table I — Isolation mechanisms for the scratchpad, with the
 * qualitative sharing columns backed by measured numbers from the
 * one-core scheduler: a periodic high-priority (secure) inference
 * preempts a long background task on one core. Utilization is the
 * systolic array's busy fraction; performance is the background
 * task's completion versus sNPU; SLA is the worst latency of the
 * periodic task versus its arrival.
 *
 * Exits 1, with the reason on stderr, unless the table keeps Table
 * I's shape: sNPU has the highest utilization and perf, partition
 * the lowest perf, and coarse flush the worst SLA. (Fine flush's SLA
 * beats sNPU's here, so sNPU's SLA is not gated.)
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "core/systems.hh"
#include "json_writer.hh"
#include "serve/core_scheduler.hh"
#include "sim/args.hh"

using namespace snpu;
using namespace snpu::bench;

namespace
{

/** Background BERT at tick 0 plus eight periodic YOLO-Lite frames,
 *  both pinned to core 0. */
std::vector<ExecStream>
scenario()
{
    ExecStream background;
    background.task = NpuTask::fromModel(ModelId::bert, World::normal, 0);
    background.task.model = background.task.model.scaled(8);
    background.arrivals = {0};
    background.pinned_core = 0;

    ExecStream periodic;
    periodic.task =
        NpuTask::fromModel(ModelId::yololite, World::secure, 10);
    periodic.task.model = periodic.task.model.scaled(8);
    for (Tick i = 0; i < 8; ++i)
        periodic.arrivals.push_back(i * 800000);
    periodic.pinned_core = 0;
    return {background, periodic};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    ArgSpec("tab01_isolation_matrix").json(&json_path).parse(argc,
                                                             argv);

    banner("Table I", "Isolation mechanisms for the scratchpad "
                      "(periodic secure task + background task)");

    struct Row
    {
        SchedPolicy policy;
        const char *name;
        const char *temporal;
        const char *spatial;
    };
    const Row rows[] = {
        {SchedPolicy::partition, "Partition", "Yes", "Yes"},
        {SchedPolicy::flush_coarse, "Flush (coarse-grained)", "Yes",
         "No"},
        {SchedPolicy::flush_fine, "Flush (fine-grained)", "Yes",
         "No"},
        {SchedPolicy::id_based, "sNPU (ID-based)", "Yes", "Yes"},
    };

    Tick ref_completion = 0;
    Tick ref_latency = 0;
    {
        auto soc = buildSoc(SystemKind::snpu);
        NCoreScheduler sched(*soc, SchedPolicy::id_based);
        NSchedResult res = sched.run(scenario());
        if (!res.ok()) {
            std::printf("ERROR: %s\n", res.error().c_str());
            return 1;
        }
        ref_completion = res.streams[0].completion;
        ref_latency = res.streams[1].worst_latency;
    }

    struct Measured
    {
        double utilization;
        double perf;
        double sla;
    };
    std::vector<Measured> measured; // one per row, in order

    Table table({"mechanism", "temporal", "spatial", "utilization",
                 "perf (vs sNPU)", "SLA (worst latency vs sNPU)"});
    for (const Row &row : rows) {
        auto soc = buildSoc(SystemKind::snpu);
        NCoreScheduler sched(*soc, row.policy, 1, 8);
        NSchedResult res = sched.run(scenario());
        if (!res.ok()) {
            std::printf("ERROR %s: %s\n", row.name,
                        res.error().c_str());
            return 1;
        }
        const Measured m{
            res.utilization,
            static_cast<double>(ref_completion) /
                static_cast<double>(res.streams[0].completion),
            static_cast<double>(res.streams[1].worst_latency) /
                static_cast<double>(ref_latency)};
        measured.push_back(m);
        table.row({row.name, row.temporal, row.spatial,
                   num(m.utilization * 100.0, 1) + "%", num(m.perf),
                   num(m.sla)});
    }
    table.print();
    std::printf("(paper Table I: partition = low utilization/perf, "
                "good SLA; coarse flush = good perf, poor SLA; fine "
                "flush = low perf, good SLA; sNPU = high "
                "utilization, good perf, good SLA)\n");

    const Measured &partition = measured[0];
    const Measured &coarse = measured[1];
    const Measured &snpu = measured[3];
    bool shape_ok = true;
    auto claim = [&shape_ok](bool holds, const char *what) {
        if (!holds) {
            std::fprintf(stderr, "tab01_isolation_matrix: Table I "
                                 "shape broken: %s\n", what);
            shape_ok = false;
        }
    };
    claim(snpu.utilization >=
              std::ranges::max(measured, {}, &Measured::utilization)
                  .utilization,
          "sNPU's utilization is not the highest");
    claim(snpu.perf >= std::ranges::max(measured, {}, &Measured::perf).perf,
          "sNPU's perf is not the highest");
    claim(partition.perf <=
              std::ranges::min(measured, {}, &Measured::perf).perf,
          "partition's perf is not the lowest");
    claim(coarse.sla >= std::ranges::max(measured, {}, &Measured::sla).sla,
          "coarse flush's SLA is not the worst");

    JsonReport report("tab01_isolation_matrix");
    report.table("isolation_matrix", table);
    return report.write(json_path) && shape_ok ? 0 : 1;
}
