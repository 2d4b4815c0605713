/**
 * @file
 * Fig 15 — Multi-task performance under static scratchpad partition
 * versus ID-based dynamic isolation.
 *
 * Three workload pairs run concurrently (one secure, one normal),
 * sharing DRAM bandwidth and the scratchpad capacity. Static
 * partition gives the secure task 3/4, 1/2, or 1/4 of the rows; the
 * ID-based mechanism lets the driver pick any split, and we report
 * its "total-best" strategy (the split minimizing the completion of
 * both workloads). Each bar is normalized to the workload's solo
 * execution (full scratchpad, full bandwidth).
 *
 * Concurrency model: each task runs on its own tile; contention for
 * the shared DRAM channel is modeled by halving the per-task
 * bandwidth (two equal streaming consumers on one channel).
 *
 * Flags:
 *   --json=FILE        machine-readable report (the "protection"
 *                      metric names the backend every run used)
 *   --protection=NAME  run every point under this protection
 *                      backend (default: the normal system's
 *                      passthrough); unknown names fail with the
 *                      list of names
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/protection_table.hh"
#include "core/systems.hh"
#include "json_writer.hh"
#include "sim/args.hh"
#include "sim/sweep_runner.hh"

using namespace snpu;
using namespace snpu::bench;

namespace
{

/** Backend every run uses; set once from --protection= in main(). */
std::string g_protection; // NOLINT

Tick
runWithRows(ModelId id, std::uint32_t rows, double gbps,
            std::uint32_t scale)
{
    SystemOverrides o;
    o.model_scale = scale;
    o.dram_gbps = gbps;
    o.protection = g_protection;
    auto soc = buildSoc(SystemKind::normal_npu, o);
    TaskRunner runner(*soc);
    NpuTask task = NpuTask::fromModel(id);
    task.model = task.model.scaled(scale);
    RunOptions opts;
    opts.spad_rows_override = rows;
    RunResult res = runner.run(task, opts);
    if (!res.ok())
        throw std::runtime_error("run failed: " + res.error());
    return res.cycles;
}

/**
 * Deferred sweep of independent single-task runs: add() enqueues a
 * (model, rows, gbps) point and returns its index; runAll() fans the
 * whole batch across host cores; cycles() reads a result back.
 */
class RunSweep
{
  public:
    std::size_t
    add(ModelId id, std::uint32_t rows, double gbps,
        std::uint32_t scale)
    {
        jobs.push_back([id, rows, gbps, scale](SweepContext &) {
            return runWithRows(id, rows, gbps, scale);
        });
        return jobs.size() - 1;
    }

    void
    runAll()
    {
        SweepRunner runner;
        results = runner.map<Tick>(jobs);
    }

    Tick
    cycles(std::size_t idx) const
    {
        const auto &outcome = results.at(idx);
        if (!outcome.ok()) {
            std::fprintf(stderr, "%s\n",
                         outcome.status.toString().c_str());
            std::exit(1);
        }
        return outcome.value;
    }

  private:
    std::vector<std::function<Tick(SweepContext &)>> jobs;
    std::vector<SweepOutcome<Tick>> results;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    ArgSpec("fig15_partition_vs_id")
        .json(&json_path)
        .protection(&g_protection)
        .parse(argc, argv);
    if (!g_protection.empty())
        requireProtectionBackend(g_protection);

    banner("Figure 15", "Static partition vs ID-based dynamic "
                        "scratchpad isolation (pairs share DRAM)");

    const std::uint32_t scale = 2;
    const std::uint32_t total_rows = 16384;
    const std::pair<ModelId, ModelId> groups[] = {
        {ModelId::googlenet, ModelId::yololite},
        {ModelId::alexnet, ModelId::mobilenet},
        {ModelId::resnet, ModelId::bert},
    };

    Table table({"pair (secure+normal)", "split", "secure norm.",
                 "normal norm."});

    // Enqueue every independent run up front (22 per pair: 2 solo
    // baselines, 3 static splits x2, 7 dynamic splits x2), fan the
    // batch across host cores, then read results back in the same
    // order the serial loop produced them.
    RunSweep sweep;
    struct PairPlan
    {
        std::size_t solo_sec, solo_norm;
        std::size_t stat[3][2];  //!< static frac x (sec, norm)
        std::size_t dyn[7][2];   //!< dynamic split x (sec, norm)
    };
    const double static_fracs[3] = {0.75, 0.5, 0.25};
    std::vector<PairPlan> pair_plans;
    for (const auto &[sec_id, norm_id] : groups) {
        PairPlan plan;
        // Solo baselines: full scratchpad, full 16 GB/s.
        plan.solo_sec = sweep.add(sec_id, total_rows, 16.0, scale);
        plan.solo_norm = sweep.add(norm_id, total_rows, 16.0, scale);
        for (int f = 0; f < 3; ++f) {
            const auto sec_rows = static_cast<std::uint32_t>(
                static_fracs[f] * total_rows);
            plan.stat[f][0] = sweep.add(sec_id, sec_rows, 8.0, scale);
            plan.stat[f][1] =
                sweep.add(norm_id, total_rows - sec_rows, 8.0, scale);
        }
        for (int i = 1; i <= 7; ++i) {
            const std::uint32_t sec_rows = total_rows * i / 8;
            plan.dyn[i - 1][0] =
                sweep.add(sec_id, sec_rows, 8.0, scale);
            plan.dyn[i - 1][1] =
                sweep.add(norm_id, total_rows - sec_rows, 8.0, scale);
        }
        pair_plans.push_back(plan);
    }
    sweep.runAll();

    for (std::size_t g = 0; g < pair_plans.size(); ++g) {
        const auto &[sec_id, norm_id] = groups[g];
        const PairPlan &plan = pair_plans[g];
        const Tick solo_sec = sweep.cycles(plan.solo_sec);
        const Tick solo_norm = sweep.cycles(plan.solo_norm);

        const std::string pair_name =
            std::string(modelName(sec_id)) + " + " +
            modelName(norm_id);

        // Static partitions: secure gets 3/4, 1/2, 1/4.
        for (int f = 0; f < 3; ++f) {
            const Tick sec = sweep.cycles(plan.stat[f][0]);
            const Tick norm_cycles = sweep.cycles(plan.stat[f][1]);
            table.row({pair_name,
                       "static " + num(static_fracs[f], 2),
                       num(static_cast<double>(sec) / solo_sec),
                       num(static_cast<double>(norm_cycles) /
                           solo_norm)});
        }

        // ID-based dynamic: sweep splits, pick the total-best (the
        // split minimizing the later completion of the two).
        double best_metric = 1e30;
        double best_sec = 0;
        double best_norm = 0;
        std::uint32_t best_rows = 0;
        for (int i = 1; i <= 7; ++i) {
            const std::uint32_t sec_rows = total_rows * i / 8;
            const Tick sec = sweep.cycles(plan.dyn[i - 1][0]);
            const Tick norm_cycles = sweep.cycles(plan.dyn[i - 1][1]);
            const double metric = std::max(
                static_cast<double>(sec) / solo_sec,
                static_cast<double>(norm_cycles) / solo_norm);
            if (metric < best_metric) {
                best_metric = metric;
                best_sec = static_cast<double>(sec) / solo_sec;
                best_norm =
                    static_cast<double>(norm_cycles) / solo_norm;
                best_rows = sec_rows;
            }
        }
        table.row({pair_name,
                   "id-based best (" +
                       num(100.0 * best_rows / total_rows, 0) +
                       "% sec)",
                   num(best_sec), num(best_norm)});
    }

    table.print();
    std::printf("(paper: no single static split works for every "
                "pair; the ID-based dynamic split matches or beats "
                "the best static choice, and the scratchpad-"
                "sensitive nets — alexnet, bert — swing hardest)\n");

    JsonReport report("fig15_partition_vs_id");
    report.table("partition_vs_id", table);
    report.metric("protection", g_protection.empty()
                                    ? std::string("passthrough")
                                    : g_protection);
    return report.write(json_path) ? 0 : 1;
}
