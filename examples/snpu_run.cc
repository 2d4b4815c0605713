/**
 * @file
 * snpu_run — command-line driver for arbitrary configurations.
 *
 * Usage:
 *   snpu_run [key=value ...]
 *
 * The keys and their defaults are declared in main(); an unknown key,
 * or a value that does not parse, prints them and exits 2.
 *
 * Examples:
 *   snpu_run model=bert system=trustzone iotlb=4
 *   snpu_run model=resnet cores=4 noc=software
 *   snpu_run model=alexnet isolation=partition partition_frac=0.25
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/protection_table.hh"
#include "core/systems.hh"
#include "core/task_runner.hh"
#include "sim/args.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

#include <memory>

using namespace snpu;

int
main(int argc, char **argv)
{
    std::string model = "resnet";
    std::string system_name = "snpu";
    std::string protection;
    std::string world = "normal";
    std::string flush_name = "none";
    std::string isolation;
    std::string noc_name = "peephole";
    std::string stats_json;
    std::string trace_file;
    std::string trace = "instr,sec";
    // The knobs below default alike on every system.
    SocParams knobs;
    unsigned scale = 1;
    unsigned cores = 1;
    bool stats = false;
    ArgSpec("snpu_run")
        .option("model",
                "googlenet|alexnet|yololite|mobilenet|resnet|bert "
                "(resnet)",
                &model)
        .option("system", "normal|trustzone|snpu (snpu)", &system_name)
        .option("protection",
                "any registered backend: passthrough|iommu|guarder|"
                "crypto (system default)",
                &protection)
        .option("world", "normal|secure (normal)", &world)
        .option("iotlb", "IOTLB entries (32, trustzone only)",
                &knobs.iotlb_entries)
        .option("walk_cache", "IOMMU walk cache (0)",
                &knobs.iommu_walk_cache)
        .option("dma_channels", "DMA channels (16)", &knobs.dma_channels)
        .option("flush", "none|tile|layer|layer5 (none)", &flush_name)
        .option("isolation", "none|partition|id (system default)",
                &isolation)
        .option("partition_frac", "secure scratchpad share, 0..1 (0.5)",
                &knobs.partition_secure_frac)
        .option("encryption", "DRAM memory encryption (0)",
                &knobs.memory_encryption)
        .option("scale", "divisor for M dims (1)", &scale)
        .option("cores", "pipeline across n tiles (1)", &cores)
        .option("noc", "software|unauthorized|peephole (peephole)",
                &noc_name)
        .option("stats", "dump the full stat group (0)", &stats)
        .option("stats_json", "JSON stat dump to FILE (off)", &stats_json)
        .option("trace_file", "record a trace to FILE (off)", &trace_file)
        .option("trace",
                "comma list: instr,dma,sec,noc,sched,guarder,spad,"
                "monitor,fault,serve,all (instr,sec)",
                &trace)
        .parse(argc, argv);

    // System selection.
    SystemKind kind;
    if (system_name == "normal")
        kind = SystemKind::normal_npu;
    else if (system_name == "trustzone")
        kind = SystemKind::trustzone_npu;
    else if (system_name == "snpu")
        kind = SystemKind::snpu;
    else {
        std::fprintf(stderr, "unknown system '%s'\n",
                     system_name.c_str());
        return 2;
    }

    SocParams params = makeSystem(kind);

    // Protection backend override, validated against the table.
    if (!protection.empty()) {
        requireProtectionBackend(protection);
        params.protection = protection;
    }
    if (kind == SystemKind::snpu && params.protection != "guarder") {
        std::fprintf(stderr, "the snpu system requires the guarder "
                             "backend; pick system=normal or "
                             "system=trustzone with protection=%s\n",
                     params.protection.c_str());
        return 2;
    }

    params.iotlb_entries = knobs.iotlb_entries;
    params.iommu_walk_cache = knobs.iommu_walk_cache;
    params.dma_channels = knobs.dma_channels;
    params.memory_encryption = knobs.memory_encryption;
    if (isolation == "none")
        params.spad_isolation = IsolationMode::none;
    else if (isolation == "partition")
        params.spad_isolation = IsolationMode::partition;
    else if (isolation == "id")
        params.spad_isolation = IsolationMode::id_based;
    else if (!isolation.empty()) {
        std::fprintf(stderr, "unknown isolation '%s'\n",
                     isolation.c_str());
        return 2;
    }
    params.partition_secure_frac = knobs.partition_secure_frac;

    FlushGranularity flush = FlushGranularity::none;
    if (flush_name == "tile")
        flush = FlushGranularity::tile;
    else if (flush_name == "layer")
        flush = FlushGranularity::layer;
    else if (flush_name == "layer5")
        flush = FlushGranularity::layer5;
    else if (flush_name != "none") {
        std::fprintf(stderr, "unknown flush '%s'\n",
                     flush_name.c_str());
        return 2;
    }

    NocMode noc = NocMode::peephole;
    if (noc_name == "software")
        noc = NocMode::software;
    else if (noc_name == "unauthorized")
        noc = NocMode::unauthorized;
    else if (noc_name != "peephole") {
        std::fprintf(stderr, "unknown noc '%s'\n", noc_name.c_str());
        return 2;
    }

    // Task selection.
    NpuTask task = NpuTask::fromModel(
        modelByName(model),
        world == "secure" ? World::secure : World::normal);
    if (scale > 1)
        task.model = task.model.scaled(scale);

    Soc soc(params);
    TaskRunner runner(soc);

    // Optional execution trace.
    std::unique_ptr<FileTraceSink> trace_sink;
    if (!trace_file.empty()) {
        std::uint32_t mask = 0;
        const std::string cats = trace + ',';
        std::string token;
        for (char ch : cats) {
            if (ch != ',') {
                token.push_back(ch);
                continue;
            }
            if (token == "instr")
                mask |= traceMask(TraceCategory::instr);
            else if (token == "dma")
                mask |= traceMask(TraceCategory::dma);
            else if (token == "sec")
                mask |= traceMask(TraceCategory::security);
            else if (token == "noc")
                mask |= traceMask(TraceCategory::noc);
            else if (token == "sched")
                mask |= traceMask(TraceCategory::sched);
            else if (token == "guarder")
                mask |= traceMask(TraceCategory::guarder);
            else if (token == "spad")
                mask |= traceMask(TraceCategory::spad);
            else if (token == "monitor")
                mask |= traceMask(TraceCategory::monitor);
            else if (token == "fault")
                mask |= traceMask(TraceCategory::fault);
            else if (token == "serve")
                mask |= traceMask(TraceCategory::serve);
            else if (token == "all")
                mask = ~0u;
            else if (!token.empty()) {
                std::fprintf(stderr, "unknown trace category '%s'\n",
                             token.c_str());
                return 2;
            }
            token.clear();
        }
        trace_sink =
            std::make_unique<FileTraceSink>(trace_file, mask);
        soc.attachTrace(trace_sink.get());
    }

    std::printf("%s\n", soc.params().describe().c_str());
    std::printf("model=%s world=%s macs=%llu weights=%llu B\n",
                task.name.c_str(), worldName(task.world),
                static_cast<unsigned long long>(task.model.macs()),
                static_cast<unsigned long long>(
                    task.model.weightBytes()));

    if (cores > 1) {
        std::vector<std::uint32_t> ids;
        for (std::uint32_t i = 0; i < cores; ++i)
            ids.push_back(i);
        PipelineResult res = runner.runPipeline(
            task, ids, noc,
            static_cast<std::uint32_t>(task.model.layers.size()));
        if (!res.ok()) {
            std::fprintf(stderr, "pipeline failed: %s\n",
                         res.error().c_str());
            return 1;
        }
        std::printf("pipeline(%u cores, %s): %llu cycles, %llu NoC "
                    "bytes, %llu transfers\n",
                    cores, nocModeName(noc),
                    static_cast<unsigned long long>(res.cycles),
                    static_cast<unsigned long long>(res.noc_bytes),
                    static_cast<unsigned long long>(res.transfers));
    } else {
        RunOptions opts;
        opts.flush = flush;
        RunResult res = runner.run(task, opts);
        if (!res.ok()) {
            std::fprintf(stderr, "run failed: %s\n",
                         res.error().c_str());
            return 1;
        }
        std::printf("cycles=%llu (%.3f ms at 1 GHz)  "
                    "utilization=%.1f%%  dma=%llu B  checks=%llu  "
                    "flush=%llu cyc\n",
                    static_cast<unsigned long long>(res.cycles),
                    static_cast<double>(res.cycles) / 1e6,
                    res.utilization(256) * 100.0,
                    static_cast<unsigned long long>(res.dma_bytes),
                    static_cast<unsigned long long>(
                        res.check_requests),
                    static_cast<unsigned long long>(
                        res.flush_cycles));
    }

    if (stats)
        soc.stats().dump(std::cout);
    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n",
                         stats_json.c_str());
            return 1;
        }
        soc.registry().dumpJson(os);
        std::printf("stats: %s\n", stats_json.c_str());
    }
    if (trace_sink) {
        std::printf("trace: %llu records -> %s\n",
                    static_cast<unsigned long long>(
                        trace_sink->lines()),
                    trace_file.c_str());
    }
    return 0;
}
