/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot paths:
 * how fast the model itself runs (host-side), useful when scaling
 * experiments up. These are not paper figures; they bound the cost
 * of the reproduction harness.
 *
 * Besides the console table, every run emits a machine-readable
 * summary (ns/op, ops/sec, and items/sec where an "item" is a MAC,
 * request or byte) so the perf trajectory is tracked across PRs:
 *
 *   simspeed [--json=PATH] [--label=NAME] [google-benchmark flags]
 *
 * defaults to writing BENCH_simspeed.json in the working directory.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "json_writer.hh"

#include "core/systems.hh"
#include "core/task_runner.hh"
#include "core/timing_cache.hh"
#include "dma/dma_engine.hh"
#include "guarder/guarder.hh"
#include "iommu/iommu.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "noc/mesh.hh"
#include "npu/systolic_model.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/args.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "spad/scratchpad.hh"
#include "tee/sha256.hh"
#include "workload/compiler.hh"
#include "workload/model_zoo.hh"

namespace
{

using namespace snpu;

// ---------------------------------------------------------------
// Memory path
// ---------------------------------------------------------------

/**
 * Sequential 64-byte reads, the functional access pattern of a
 * streaming DMA: consecutive packets land on the same 4 KiB page.
 */
void
BM_PhysMemStreamRead(benchmark::State &state)
{
    PhysMem pm;
    constexpr std::size_t span = 8u << 20;
    pm.fill(0, span, 0xab);
    std::uint8_t buf[64];
    std::uint64_t off = 0;
    for (auto _ : state) {
        pm.read(off % span, buf, sizeof(buf));
        off += sizeof(buf);
        benchmark::DoNotOptimize(buf);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_PhysMemStreamRead);

/** Sequential 64-byte writes (DMA store stream). */
void
BM_PhysMemStreamWrite(benchmark::State &state)
{
    PhysMem pm;
    constexpr std::size_t span = 8u << 20;
    std::uint8_t buf[64] = {0x5a};
    std::uint64_t off = 0;
    for (auto _ : state) {
        pm.write(off % span, buf, sizeof(buf));
        off += sizeof(buf);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_PhysMemStreamWrite);

/**
 * Full 16 KiB DMA transfer under the request-granular Guarder: one
 * check up front, then the batched packet loop. One "item" is one
 * transferred byte.
 */
void
BM_DmaTransferGuarder(benchmark::State &state)
{
    stats::Group stats("g");
    MemSystem mem(stats);
    NpuGuarder guard(stats);
    const Addr pa = mem.map().dram().base;
    constexpr std::uint32_t bytes = 16384;
    guard.setTranslationRegister(0, 0x1000, pa, 1 << 20, true);
    guard.setCheckingRegister(0, AddrRange{pa, 1 << 20},
                              GuardPerm::rw(), World::normal, true);
    DmaEngine dma(stats, mem, guard);
    std::vector<std::uint8_t> buf;
    Tick t = 0;
    for (auto _ : state) {
        DmaRequest req{0x1000, bytes, MemOp::read, World::normal};
        DmaResult res = dma.transfer(t, req, &buf);
        benchmark::DoNotOptimize(res);
        t = res.done;
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_DmaTransferGuarder);

/**
 * The same 16 KiB transfer under the packet-granular IOMMU
 * (IOTLB-hit regime) — the generic per-packet loop, watched for
 * regressions.
 */
void
BM_DmaTransferIommu(benchmark::State &state)
{
    stats::Group stats("g");
    MemSystem mem(stats);
    PageTable table(mem, AddrRange{mem.map().dram().base, 8u << 20});
    constexpr std::uint32_t bytes = 16384;
    table.mapRange(0x100000, mem.map().dram().base + (64u << 20),
                   16 * page_bytes, true, false);
    Iommu iommu(stats, table);
    DmaEngine dma(stats, mem, iommu);
    std::vector<std::uint8_t> buf;
    Tick t = 0;
    for (auto _ : state) {
        DmaRequest req{0x100000, bytes, MemOp::read, World::normal};
        DmaResult res = dma.transfer(t, req, &buf);
        benchmark::DoNotOptimize(res);
        t = res.done;
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_DmaTransferIommu);

/**
 * One batched tile load under the request-granular Guarder, the
 * shape paper_sweep's DMA time goes to: 16 streams of 48 packets
 * each, interleaved round-robin, timing only. The batches walk a
 * 16 MiB window, eight times the L2, so nearly every line misses as
 * on the figure path. One "item" is one packet; per_packet is the
 * host time per packet.
 */
void
BM_DmaBatchGuarder(benchmark::State &state)
{
    stats::Group stats("g");
    MemSystem mem(stats);
    NpuGuarder guard(stats);
    constexpr std::uint32_t streams = 16;
    constexpr std::uint32_t stream_bytes = 48 * 64;
    constexpr Addr batch_bytes = streams * stream_bytes;
    constexpr Addr window = 16u << 20;
    const Addr va = 0x100000;
    const Addr pa = mem.map().dram().base;
    guard.setTranslationRegister(0, va, pa, window, true);
    guard.setCheckingRegister(0, AddrRange{pa, window},
                              GuardPerm::rw(), World::normal, true);
    DmaEngine dma(stats, mem, guard);
    std::vector<DmaRequest> reqs(streams);
    const std::vector<std::vector<std::uint8_t> *> buffers(streams,
                                                           nullptr);
    Tick t = 0;
    Addr offset = 0;
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < streams; ++i) {
            reqs[i] = DmaRequest{va + offset + i * stream_bytes,
                                 stream_bytes, MemOp::read,
                                 World::normal};
        }
        DmaResult res = dma.transferBatch(t, reqs, buffers);
        benchmark::DoNotOptimize(res);
        t = res.done;
        offset = (offset + batch_bytes) % (window / batch_bytes *
                                           batch_bytes);
    }
    const auto packets = static_cast<std::int64_t>(state.iterations()) *
                         streams * (stream_bytes / 64);
    state.SetItemsProcessed(packets);
    state.counters["per_packet"] = benchmark::Counter(
        static_cast<double>(packets),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DmaBatchGuarder);

// ---------------------------------------------------------------
// Component hot paths (pre-existing coverage)
// ---------------------------------------------------------------

void
BM_ScratchpadAccess(benchmark::State &state)
{
    stats::Group stats("g");
    SpadParams p;
    p.rows = 16384;
    Scratchpad spad(stats, p);
    std::uint8_t row[16] = {};
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            spad.write(World::normal,
                       static_cast<std::uint32_t>(i++ % 16384), row));
    }
}
BENCHMARK(BM_ScratchpadAccess);

void
BM_GuarderTranslate(benchmark::State &state)
{
    stats::Group stats("g");
    NpuGuarder guard(stats);
    guard.setTranslationRegister(0, 0x1000, 0x9000, 1 << 20, true);
    guard.setCheckingRegister(0, AddrRange{0x9000, 1 << 20},
                              GuardPerm::rw(), World::normal, true);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(guard.translate(
            0, 0x1000 + (i++ % 1024) * 64, 64, MemOp::read,
            World::normal));
    }
}
BENCHMARK(BM_GuarderTranslate);

void
BM_IommuTranslateHit(benchmark::State &state)
{
    stats::Group stats("g");
    MemSystem mem(stats);
    PageTable table(mem, AddrRange{mem.map().dram().base, 8u << 20});
    table.mapRange(0x100000, mem.map().dram().base + (64u << 20),
                   16 * page_bytes, true, false);
    Iommu iommu(stats, table);
    iommu.translate(0, 0x100000, 64, MemOp::read, World::normal);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(iommu.translate(
            0, 0x100000 + (i++ % 64) * 64, 64, MemOp::read,
            World::normal));
    }
}
BENCHMARK(BM_IommuTranslateHit);

void
BM_MeshTraverse(benchmark::State &state)
{
    stats::Group stats("g");
    Mesh mesh(stats);
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t = mesh.traverse(t, 0, 9, 32));
    }
}
BENCHMARK(BM_MeshTraverse);

void
BM_MemSystemAccess(benchmark::State &state)
{
    stats::Group stats("g");
    MemSystem mem(stats);
    const Addr base = mem.map().dram().base;
    Tick t = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        MemRequest req{base + (i++ % 4096) * 64, 64, MemOp::read,
                       World::normal};
        MemResult res = mem.access(t, req);
        benchmark::DoNotOptimize(res);
        t = res.done;
    }
}
BENCHMARK(BM_MemSystemAccess);

void
BM_Sha256PerKiB(benchmark::State &state)
{
    std::vector<std::uint8_t> data(1024);
    Rng rng(1);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(Sha256::hash(data));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256PerKiB);

/**
 * The vectorized functional GEMM: one weight-stationary row MAC
 * (dim activations against a dim x dim weight tile). One "item" is
 * one multiply-accumulate.
 */
void
BM_SystolicComputeRow(benchmark::State &state)
{
    SystolicParams p;
    SystolicArray arr(p);
    Rng rng(3);
    std::vector<std::int8_t> w(static_cast<std::size_t>(p.dim) *
                               p.dim);
    for (auto &b : w)
        b = static_cast<std::int8_t>(rng.next());
    arr.preload(w.data());
    std::vector<std::int8_t> a(p.dim);
    for (auto &b : a)
        b = static_cast<std::int8_t>(rng.next());
    std::vector<std::int32_t> acc(p.dim, 0);
    for (auto _ : state) {
        arr.computeRow(a.data(), p.dim, acc.data(), true);
        benchmark::DoNotOptimize(acc.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * p.dim *
        p.dim);
}
BENCHMARK(BM_SystolicComputeRow);

// ---------------------------------------------------------------
// Serve-path macro-benchmarks
// ---------------------------------------------------------------

std::vector<TenantSpec>
serveTenants()
{
    std::vector<TenantSpec> tenants;
    const ModelId models[] = {ModelId::mobilenet, ModelId::yololite};
    const World worlds[] = {World::secure, World::normal};
    for (std::uint32_t t = 0; t < 2; ++t) {
        TenantSpec spec;
        spec.name = std::string(modelName(models[t])) + "_" +
                    std::to_string(t);
        spec.task =
            NpuTask::fromModel(models[t], worlds[t], static_cast<int>(t));
        spec.task.model = spec.task.model.scaled(64);
        Rng rng(17 + t);
        spec.arrivals = poissonArrivals(rng, 200000.0, 4);
        tenants.push_back(spec);
    }
    return tenants;
}

Tick
serveWindow(benchmark::State &state)
{
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg;
    cfg.num_cores = 2;
    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve(serveTenants());
    if (!res.ok())
        state.SkipWithError(res.error().c_str());
    return res.makespan;
}

/**
 * One full serving window (secure + normal tenant, NPU Monitor
 * admission, 2 tiles) executed live: the timing cache is emptied
 * every iteration, so each segment runs through the detailed model.
 * One "item" is one served request.
 */
void
BM_ServeWindowColdCache(benchmark::State &state)
{
    for (auto _ : state) {
        TimingCache::global().clear();
        benchmark::DoNotOptimize(serveWindow(state));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_ServeWindowColdCache);

/**
 * The same window replaying from a warm cache — the steady state of
 * a sweep. The ratio to the cold-cache run is the memoization
 * speedup on the serve path (the acceptance target lives in
 * serve_throughput; this tracks the trajectory per PR).
 */
void
BM_ServeWindowWarmCache(benchmark::State &state)
{
    TimingCache::global().clear();
    {
        // Populate the cache outside the timed region.
        auto soc = buildSoc(SystemKind::snpu);
        ServerConfig cfg;
        cfg.num_cores = 2;
        SnpuServer server(*soc, cfg);
        ServeResult res = server.serve(serveTenants());
        if (!res.ok())
            state.SkipWithError(res.error().c_str());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(serveWindow(state));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_ServeWindowWarmCache);

std::vector<TenantSpec>
decodeTenants()
{
    std::vector<TenantSpec> tenants;
    const World worlds[] = {World::secure, World::normal};
    for (std::uint32_t t = 0; t < 2; ++t) {
        TenantSpec spec;
        spec.name = "decode_" + std::to_string(t);
        spec.task.name = spec.name;
        spec.task.world = worlds[t];
        spec.arrivals.assign(2, 0);
        spec.queue_capacity = 2;
        spec.decode_tokens = 8;
        spec.decoder = makeDecoder(DecoderId::tinygpt);
        tenants.push_back(spec);
    }
    return tenants;
}

/**
 * A continuous-batching decode window (secure + normal tinygpt
 * tenant, 2 requests x 8 tokens each, 2 tiles): prefill plus
 * per-token re-enqueue, with every token paying a KV-cache
 * allocation through the monitor's caching pool. Steady-state decode
 * replays one shape, so this is the serve path where both the timing
 * cache and the pool allocator earn their keep. One "item" is one
 * generated token.
 */
void
BM_ServeWindowDecode(benchmark::State &state)
{
    for (auto _ : state) {
        auto soc = buildSoc(SystemKind::snpu);
        ServerConfig cfg;
        cfg.num_cores = 2;
        cfg.latency_hist_max = 4.0e7;
        SnpuServer server(*soc, cfg);
        ServeResult res = server.serve(decodeTenants());
        if (!res.ok())
            state.SkipWithError(res.error().c_str());
        benchmark::DoNotOptimize(res.makespan);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 2 * 2 * 8);
}
BENCHMARK(BM_ServeWindowDecode);

// ---------------------------------------------------------------
// Paper-figure macro-benchmarks
// ---------------------------------------------------------------

/**
 * One Fig 15 point end to end, as fig15_partition_vs_id runs it: a
 * cold buildSoc() plus TaskRunner::run() of googlenet at scale 2
 * with half of the 16384-row scratchpad (the 0.5 static split) at
 * 8 GB/s. Timing-only and off the timing cache, so it tracks the
 * figure path (compile, scratchpad checks, DMA, L2) rather than one
 * kernel. One "item" is one simulated cycle.
 */
void
BM_PaperPointFig15(benchmark::State &state)
{
    std::int64_t cycles = 0;
    for (auto _ : state) {
        SystemOverrides o;
        o.model_scale = 2;
        o.dram_gbps = 8.0;
        auto soc = buildSoc(SystemKind::normal_npu, o);
        TaskRunner runner(*soc);
        NpuTask task = NpuTask::fromModel(ModelId::googlenet);
        task.model = task.model.scaled(2);
        RunOptions opts;
        opts.spad_rows_override = 8192;
        RunResult res = runner.run(task, opts);
        if (!res.ok())
            state.SkipWithError(res.error().c_str());
        cycles += static_cast<std::int64_t>(res.cycles);
    }
    state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_PaperPointFig15)->Unit(benchmark::kMillisecond);

/**
 * Compile alexnet at scale 8 with the default scratchpad budget, the
 * compile step of every paper_sweep alexnet point (about 487 K
 * instructions). One "item" is one emitted instruction.
 */
void
BM_CompileAlexnet(benchmark::State &state)
{
    const ModelSpec model = makeModel(ModelId::alexnet).scaled(8);
    TilingCompiler compiler;
    std::int64_t instrs = 0;
    for (auto _ : state) {
        NpuProgram prog = compiler.compileModel(model, 0x1000'0000);
        instrs += static_cast<std::int64_t>(prog.code.size());
        benchmark::DoNotOptimize(prog.code.data());
    }
    state.SetItemsProcessed(instrs);
}
BENCHMARK(BM_CompileAlexnet)->Unit(benchmark::kMillisecond);

/**
 * One Fig 13 point end to end, paper_sweep's slowest (p90) kind: a
 * cold buildSoc() of the TrustZone NPU (IOMMU, no scratchpad
 * isolation) plus TaskRunner::run() of alexnet at scale 8. Every
 * 64-byte DMA packet goes through the IOMMU and the shared L2. One
 * "item" is one simulated cycle.
 */
void
BM_PaperPointFig13Alexnet(benchmark::State &state)
{
    std::int64_t cycles = 0;
    for (auto _ : state) {
        SystemOverrides o;
        o.model_scale = 8;
        o.apply_isolation = true;
        o.spad_isolation = IsolationMode::none;
        auto soc = buildSoc(SystemKind::trustzone_npu, o);
        TaskRunner runner(*soc);
        NpuTask task = NpuTask::fromModel(ModelId::alexnet);
        task.model = task.model.scaled(8);
        RunResult res = runner.run(task, RunOptions{});
        if (!res.ok())
            state.SkipWithError(res.error().c_str());
        cycles += static_cast<std::int64_t>(res.cycles);
    }
    state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_PaperPointFig13Alexnet)->Unit(benchmark::kMillisecond);

/**
 * One Fig 14 point end to end, as paper_sweep runs it: a cold
 * buildSoc() of the TrustZone NPU plus TaskRunner::run() of resnet at
 * scale 8 with a scratchpad flush after every tile, so the flush
 * engine's save/restore streams sit on the path. One "item" is one
 * simulated cycle.
 */
void
BM_PaperPointFig14Resnet(benchmark::State &state)
{
    std::int64_t cycles = 0;
    for (auto _ : state) {
        SystemOverrides o;
        o.model_scale = 8;
        auto soc = buildSoc(SystemKind::trustzone_npu, o);
        TaskRunner runner(*soc);
        NpuTask task = NpuTask::fromModel(ModelId::resnet);
        task.model = task.model.scaled(8);
        RunOptions opts;
        opts.flush = FlushGranularity::tile;
        RunResult res = runner.run(task, opts);
        if (!res.ok())
            state.SkipWithError(res.error().c_str());
        cycles += static_cast<std::int64_t>(res.cycles);
    }
    state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_PaperPointFig14Resnet)->Unit(benchmark::kMillisecond);

/**
 * One Fig 17 point end to end, as paper_sweep runs it: a cold
 * buildSoc() of the sNPU plus a layer-per-core runPipeline() of
 * googlenet at scale 8 over four tiles through the peephole NoC.
 * One "item" is one simulated cycle.
 */
void
BM_PaperPointFig17Googlenet(benchmark::State &state)
{
    std::int64_t cycles = 0;
    for (auto _ : state) {
        SystemOverrides o;
        o.model_scale = 8;
        auto soc = buildSoc(SystemKind::snpu, o);
        TaskRunner runner(*soc);
        NpuTask task = NpuTask::fromModel(ModelId::googlenet);
        task.model = task.model.scaled(8);
        PipelineResult res = runner.runPipeline(
            task, {0, 1, 2, 3}, NocMode::peephole,
            static_cast<std::uint32_t>(task.model.layers.size()));
        if (!res.ok())
            state.SkipWithError(res.error().c_str());
        cycles += static_cast<std::int64_t>(res.cycles);
    }
    state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_PaperPointFig17Googlenet)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------

/**
 * Console output plus a collected machine-readable summary. Only
 * per-iteration runs are recorded (no aggregates), one entry per
 * benchmark.
 */
class JsonTeeReporter : public benchmark::ConsoleReporter
{
  public:
    struct Entry
    {
        std::string name;
        std::uint64_t iterations;
        double ns_per_op;
        double ops_per_sec;
        double items_per_sec; //!< 0 when the bench sets no counter
    };

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            if (r.run_type != Run::RT_Iteration || r.error_occurred)
                continue;
            Entry e;
            e.name = r.benchmark_name();
            e.iterations = static_cast<std::uint64_t>(r.iterations);
            const double spi =
                r.iterations
                    ? r.real_accumulated_time /
                          static_cast<double>(r.iterations)
                    : 0.0;
            e.ns_per_op = spi * 1e9;
            e.ops_per_sec = spi > 0.0 ? 1.0 / spi : 0.0;
            e.items_per_sec = 0.0;
            auto items = r.counters.find("items_per_second");
            auto bytes = r.counters.find("bytes_per_second");
            if (items != r.counters.end())
                e.items_per_sec = items->second;
            else if (bytes != r.counters.end())
                e.items_per_sec = bytes->second;
            entries.push_back(std::move(e));
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }

    /**
     * Append this run to `{"runs": [...]}` at @p path. An existing
     * document written by this reporter keeps its earlier runs (the
     * per-PR perf trajectory); a missing or unrecognized file starts
     * a fresh one.
     */
    bool
    writeJson(const std::string &path, const std::string &label) const
    {
        // Render this run's record into memory first.
        char *buf = nullptr;
        std::size_t len = 0;
        std::FILE *ms = open_memstream(&buf, &len);
        if (!ms) {
            std::fprintf(stderr, "simspeed: out of memory\n");
            return false;
        }
        {
            snpu::bench::JsonWriter w(ms);
            w.beginObject();
            w.key("label");
            w.value(label);
            w.key("benchmarks");
            w.beginArray();
            for (const Entry &e : entries) {
                w.beginObject();
                w.key("name");
                w.value(e.name);
                w.key("iterations");
                w.value(e.iterations);
                w.key("ns_per_op");
                w.value(e.ns_per_op);
                w.key("ops_per_sec");
                w.value(e.ops_per_sec);
                w.key("items_per_sec");
                w.value(e.items_per_sec);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        std::fclose(ms);
        std::string run(buf, len);
        std::free(buf);

        // Merge with the existing document. The file format is owned
        // by this writer, so "ends with ]}" identifies a well-formed
        // earlier document to splice into.
        std::string existing;
        if (std::FILE *in = std::fopen(path.c_str(), "r")) {
            char chunk[4096];
            std::size_t n;
            while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0)
                existing.append(chunk, n);
            std::fclose(in);
        }
        auto rstrip = [](std::string &s) {
            while (!s.empty() &&
                   std::isspace(static_cast<unsigned char>(s.back())))
                s.pop_back();
        };
        rstrip(existing);

        // Splice before the document's closing "]}"; tolerate the
        // whitespace of hand- or tool-formatted files.
        std::string doc;
        if (!existing.empty() && existing.front() == '{' &&
            existing.back() == '}' &&
            existing.find("\"runs\"") != std::string::npos) {
            std::string head =
                existing.substr(0, existing.size() - 1);
            rstrip(head);
            if (!head.empty() && head.back() == ']') {
                head.pop_back();
                rstrip(head);
                const bool first_run =
                    !head.empty() && head.back() == '[';
                doc = head + (first_run ? "" : ", ") + run + "]}\n";
            }
        }
        if (doc.empty()) {
            if (!existing.empty()) {
                std::fprintf(stderr,
                             "simspeed: %s is not a simspeed "
                             "document, starting fresh\n",
                             path.c_str());
            }
            doc = "{\"runs\": [" + run + "]}\n";
        }

        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "simspeed: cannot write %s\n",
                         path.c_str());
            return false;
        }
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
        return true;
    }

  private:
    std::vector<Entry> entries;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_simspeed.json";
    std::string label = "current";
    std::vector<char *> keep =
        snpu::ArgSpec("simspeed")
            .json(&json_path)
            .option("--label", "label for the appended run record",
                    &label)
            .passthrough("any google-benchmark flag (forwarded, "
                         "e.g. --benchmark_filter=REGEX)")
            .parse(argc, argv);
    int kargc = static_cast<int>(keep.size());
    benchmark::Initialize(&kargc, keep.data());
    if (benchmark::ReportUnrecognizedArguments(kargc, keep.data()))
        return 1;

    JsonTeeReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!reporter.writeJson(json_path, label))
        return 1;
    std::printf("wrote %s (label=%s)\n", json_path.c_str(),
                label.c_str());
    return 0;
}
