/**
 * @file
 * paper_sweep: cold single-task points, the calls the fig* benches
 * make. Each op builds a fresh SoC with buildSoc() and runs one task
 * through TaskRunner (or a 4-tile runPipeline for the Fig 17 points).
 * The timing cache stays off, as it does for the figures.
 */

#include <string>
#include <vector>

#include "core/systems.hh"
#include "core/task_runner.hh"
#include "sim/random.hh"
#include "workloads.hh"

using namespace snpu;

namespace snpubench
{

namespace
{

constexpr std::uint32_t model_scale = 8;
constexpr std::uint32_t total_rows = 16384;

struct Point
{
    SystemKind kind = SystemKind::normal_npu;
    SystemOverrides overrides;
    ModelId model = ModelId::googlenet;
    RunOptions run;
    /** Fig 17: a layer-per-core pipeline over 4 tiles (peephole). */
    bool pipeline = false;
};

std::vector<Point>
makePoints(bool smoke)
{
    std::vector<Point> pts;
    // Fig 13: one task, full scratchpad, per protection backend.
    SystemOverrides base;
    base.model_scale = model_scale;
    base.apply_isolation = true;
    base.spad_isolation = IsolationMode::none;
    SystemOverrides crypto = base;
    crypto.protection = "crypto";
    for (ModelId id : allModels()) {
        pts.push_back({SystemKind::snpu, base, id, {}, false});
        pts.push_back({SystemKind::trustzone_npu, base, id, {}, false});
        pts.push_back({SystemKind::normal_npu, crypto, id, {}, false});
        pts.push_back({SystemKind::normal_npu, base, id, {}, false});
    }
    // Fig 15: compiler scratchpad budgets at half DRAM bandwidth.
    SystemOverrides shared;
    shared.model_scale = model_scale;
    shared.dram_gbps = 8.0;
    const std::pair<ModelId, std::uint32_t> splits[] = {
        {ModelId::googlenet, total_rows * 3 / 4},
        {ModelId::yololite, total_rows / 4},
        {ModelId::alexnet, total_rows / 2},
        {ModelId::bert, total_rows / 4},
    };
    for (const auto &[id, rows] : splits) {
        Point p{SystemKind::normal_npu, shared, id, {}, false};
        p.run.spad_rows_override = rows;
        pts.push_back(p);
    }
    // Fig 14: tile-granular flushing on the TrustZone NPU.
    SystemOverrides scaled;
    scaled.model_scale = model_scale;
    for (ModelId id : {ModelId::resnet, ModelId::mobilenet}) {
        Point p{SystemKind::trustzone_npu, scaled, id, {}, false};
        p.run.flush = FlushGranularity::tile;
        pts.push_back(p);
    }
    // Fig 17: peephole NoC pipelines.
    for (ModelId id : {ModelId::googlenet, ModelId::yololite})
        pts.push_back({SystemKind::snpu, scaled, id, {}, true});

    if (smoke) {
        // One point of each kind of call.
        std::vector<Point> few;
        for (std::size_t i : {0, 1, 2, 3, 24, 28, 30})
            few.push_back(pts[i]);
        pts = few;
    }
    return pts;
}

class PaperSweep : public Workload
{
  public:
    PaperSweep(std::uint64_t seed, bool smoke)
        : points(makePoints(smoke))
    {
        // The seed picks where the fixed cycle of points starts.
        Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
        first = rng.below(points.size());
    }

    void
    setup(Probe &probe) override
    {
        tasks.clear();
        for (const Point &p : points) {
            NpuTask task = NpuTask::fromModel(p.model);
            task.model = task.model.scaled(p.overrides.model_scale);
            tasks.push_back(std::move(task));
        }
        // Warm-up, untraced: the first point of each system kind and
        // call shape in list order, whatever the seed.
        Probe quiet{nullptr, probe.counts};
        bool seen[3][2] = {};
        for (std::size_t i = 0; i < points.size(); ++i) {
            bool &s = seen[static_cast<int>(points[i].kind)]
                          [points[i].pipeline];
            if (!s)
                runPoint(i, quiet);
            s = true;
        }
    }

    std::size_t size() const override { return points.size(); }

    OpResult
    run(std::size_t index, Probe &probe) override
    {
        return runPoint((first + index) % points.size(), probe);
    }

    std::string
    guard(const Phase &phase) const override
    {
        if (phase.cache.lookups() != 0)
            return "paper_sweep made " +
                   std::to_string(phase.cache.lookups()) +
                   " timing-cache lookups (expected none)";
        return {};
    }

  private:
    OpResult
    runPoint(std::size_t index, Probe &probe)
    {
        const Point &p = points[index];
        const NpuTask &task = tasks[index];
        OpResult r;
        std::unique_ptr<Soc> soc;
        RunResult res;
        PipelineResult pres;
        {
            Stopwatch sw(r.lib_ns);
            {
                Scope s(probe.spans, "core.soc_build");
                soc = buildSoc(p.kind, p.overrides);
            }
            TaskRunner runner(*soc);
            if (p.pipeline) {
                Scope s(probe.spans, "noc.pipeline");
                pres = runner.runPipeline(
                    task, {0, 1, 2, 3}, NocMode::peephole,
                    static_cast<std::uint32_t>(task.model.layers.size()));
            } else {
                if (probe.traced()) {
                    Scope s(probe.spans, "workload.compile");
                    const NpuProgram prog =
                        runner.compile(task, p.run.spad_rows_override);
                    probe.counts->add("workload.instructions",
                                      static_cast<double>(prog.code.size()));
                    probe.counts->add("workload.compiles", 1);
                }
                Scope s(probe.spans, "core.run");
                res = runner.run(task, p.run);
            }
        }

        Digest d;
        if (p.pipeline) {
            r.ok = pres.ok();
            r.error = pres.error();
            r.sim_cycles = static_cast<double>(pres.cycles);
            d.add(static_cast<std::uint64_t>(pres.code()))
                .add(pres.cycles)
                .add(pres.noc_bytes)
                .add(pres.transfers);
        } else {
            r.ok = res.ok();
            r.error = res.error();
            r.sim_cycles = static_cast<double>(res.cycles);
            d.add(static_cast<std::uint64_t>(res.code()))
                .add(res.cycles)
                .add(res.end)
                .add(res.macs)
                .add(res.mac_busy)
                .add(res.flush_cycles)
                .add(res.check_requests)
                .add(res.dma_bytes);
            if (probe.traced())
                probe.counts->add("npu.macs", static_cast<double>(res.macs));
        }
        r.digest = d.addRegistry(*soc).value();
        if (probe.traced())
            addSocCounters(*soc, *probe.counts);

        {
            Stopwatch sw(r.lib_ns);
            soc.reset();
        }
        return r;
    }

    std::vector<Point> points;
    std::size_t first = 0;
    std::vector<NpuTask> tasks;
};

} // namespace

std::unique_ptr<Workload>
makePaperSweep(std::uint64_t seed, bool smoke)
{
    return std::make_unique<PaperSweep>(seed, smoke);
}

} // namespace snpubench
