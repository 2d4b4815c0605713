/**
 * @file
 * Fig 13 — Protected memory access for sNPU.
 *
 *  (a) Normalized end-to-end performance of the six DNNs under the
 *      TrustZone-NPU IOMMU with 4/8/16/32 IOTLB entries, the NPU
 *      Guarder, and the memory-encryption engine ("crypto", the
 *      GuardNN/SeDA-style alternative), normalized to the
 *      unprotected Normal NPU.
 *  (b) Translation/checking requests per backend: the Guarder and
 *      the crypto engine check once per DMA request, the IOMMU once
 *      per 64-byte packet, so request-granular backends need only a
 *      few percent of the lookups.
 *
 * Flags:
 *   --json=FILE        machine-readable report (series name their
 *                      backend in the "series_backends" table)
 *   --protection=NAME  restrict the protected series to one
 *                      backend of the table; unknown names fail
 *                      with the list of names
 */

#include <cstdio>
#include <cstring>
#include <functional>
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

/** One protected series: a table column backed by one backend. */
struct Series
{
    std::string column;
    std::string backend;
    std::function<RunResult(ModelId)> run;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string filter;
    ArgSpec("fig13_access_control")
        .json(&json_path)
        .protection(&filter)
        .parse(argc, argv);

    // Isolate the access-control variable: the scratchpad-isolation
    // strawmen get their own experiments (Figs 14, 15), so all
    // systems here run a single task with the full scratchpad.
    SystemOverrides base;
    base.model_scale = 2;
    base.apply_isolation = true;
    base.spad_isolation = IsolationMode::none;

    const std::uint32_t tlb_sizes[] = {4, 8, 16, 32};

    std::vector<Series> series;
    for (std::uint32_t entries : tlb_sizes) {
        SystemOverrides o = base;
        o.iotlb_entries = entries;
        series.push_back({"IOTLB-" + std::to_string(entries), "iommu",
                          [o](ModelId id) {
                              return measureModel(
                                  SystemKind::trustzone_npu, id, o);
                          }});
    }
    series.push_back({"NPU Guarder", "guarder", [base](ModelId id) {
                          return measureModel(SystemKind::snpu, id,
                                              base);
                      }});
    {
        // The encryption engine replaces access control on the
        // otherwise-unprotected system: isolation comes from keys
        // and MACs, the overhead from the crypto bandwidth.
        SystemOverrides o = base;
        o.protection = "crypto";
        series.push_back({"Crypto", "crypto", [o](ModelId id) {
                              return measureModel(
                                  SystemKind::normal_npu, id, o);
                          }});
    }

    if (!filter.empty()) {
        requireProtectionBackend(filter);
        std::vector<Series> kept;
        for (auto &s : series) {
            if (s.backend == filter)
                kept.push_back(std::move(s));
        }
        series = std::move(kept);
        if (series.empty()) {
            // A backend with no predefined series (passthrough)
            // still measures: one series on the normal system.
            SystemOverrides o = base;
            o.protection = filter;
            series.push_back({filter, filter, [o](ModelId id) {
                                  return measureModel(
                                      SystemKind::normal_npu, id, o);
                              }});
        }
    }

    banner("Figure 13(a)",
           "Normalized performance under different access controls");

    std::vector<std::string> perf_headers{"workload"};
    for (const Series &s : series)
        perf_headers.push_back(s.column);
    Table perf(perf_headers);

    std::vector<std::string> check_headers{"workload"};
    for (const Series &s : series)
        check_headers.push_back(s.column);
    // The paper's headline ratio needs both comparands.
    int iommu32 = -1;
    int guarder_col = -1;
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (series[i].column == "IOTLB-32")
            iommu32 = static_cast<int>(i);
        if (series[i].backend == "guarder")
            guarder_col = static_cast<int>(i);
    }
    const bool with_ratio = iommu32 >= 0 && guarder_col >= 0;
    if (with_ratio)
        check_headers.push_back("guarder/iommu");
    Table checks(check_headers);

    // Every (model, series) measurement builds its own SoC, so the
    // whole grid fans out across host cores; results come back in
    // submission order and the tables print identically for any
    // thread count. Per model: baseline first, then each series.
    const auto models = allModels();
    const std::size_t variants = 1 + series.size();
    std::vector<std::function<RunResult(SweepContext &)>> grid;
    grid.reserve(models.size() * variants);
    for (ModelId id : models) {
        grid.push_back([id, base](SweepContext &) {
            return measureModel(SystemKind::normal_npu, id, base);
        });
        for (const Series &s : series) {
            grid.push_back(
                [id, &s](SweepContext &) { return s.run(id); });
        }
    }
    SweepRunner runner;
    const auto measured = runner.map<RunResult>(grid);
    auto get = [&](std::size_t model_idx,
                   std::size_t variant) -> const RunResult & {
        const auto &outcome = measured[model_idx * variants + variant];
        if (!outcome.ok()) {
            std::fprintf(stderr, "sweep job failed: %s\n",
                         outcome.status.toString().c_str());
            std::exit(1);
        }
        return outcome.value;
    };

    for (std::size_t m = 0; m < models.size(); ++m) {
        const ModelId id = models[m];
        const RunResult &normal = get(m, 0);
        if (!normal.ok()) {
            std::printf("ERROR baseline %s: %s\n", modelName(id),
                        normal.error().c_str());
            return 1;
        }

        std::vector<std::string> perf_row{modelName(id)};
        std::vector<std::string> check_row{modelName(id)};
        for (std::size_t v = 0; v < series.size(); ++v) {
            const RunResult &res = get(m, 1 + v);
            if (!res.ok()) {
                std::printf("ERROR %s %s: %s\n",
                            series[v].backend.c_str(), modelName(id),
                            res.error().c_str());
                return 1;
            }
            perf_row.push_back(
                num(static_cast<double>(normal.cycles) /
                    static_cast<double>(res.cycles)));
            check_row.push_back(big(res.check_requests));
        }
        if (with_ratio) {
            const std::uint64_t i32 =
                get(m, 1 + static_cast<std::size_t>(iommu32))
                    .check_requests;
            const std::uint64_t gd =
                get(m, 1 + static_cast<std::size_t>(guarder_col))
                    .check_requests;
            check_row.push_back(
                num(100.0 * static_cast<double>(gd) /
                        static_cast<double>(i32),
                    1) +
                "%");
        }
        perf.row(perf_row);
        checks.row(check_row);
    }
    perf.print();
    std::printf("(paper: IOTLB-4 loses up to ~20%%, IOTLB-32 still "
                "~10%% on real workloads; the Guarder loses "
                "nothing; the crypto engine pays MAC/counter "
                "bandwidth instead of translation stalls)\n\n");

    banner("Figure 13(b)",
           "Translation/checking request counts (energy proxy)");
    checks.print();
    std::printf("(paper: tile-based registers need roughly 5%% of "
                "the IOMMU's translation requests)\n");

    JsonReport report("fig13_access_control");
    report.table("perf_normalized", perf);
    report.table("check_requests", checks);
    // Name the backend behind every series so downstream consumers
    // (CI validation, plots) never parse column titles.
    Table backends({"series", "backend"});
    for (const Series &s : series)
        backends.row({s.column, s.backend});
    report.table("series_backends", backends);
    report.metric("protection_filter",
                  filter.empty() ? std::string("all") : filter);
    return report.write(json_path) ? 0 : 1;
}
