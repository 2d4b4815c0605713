/**
 * @file
 * snpu_serve — command-line driver for the multi-tenant serving
 * engine. Spins up N tenants with open-loop Poisson arrivals at a
 * chosen offered load and serves them across M tiles under one of
 * the Table I isolation policies, reporting per-tenant tail latency
 * and throughput. Fully deterministic for a fixed seed.
 *
 * Usage:
 *   snpu_serve [key=value ...]
 *
 * The keys and their defaults are declared in main(); an unknown key,
 * or a value that does not parse, prints them and exits 2.
 *
 * Examples:
 *   snpu_serve tenants=4 cores=4 load=0.7 isolation=id
 *   snpu_serve tenants=2 cores=1 load=0.3 isolation=partition
 *   snpu_serve tenants=4 protection=iommu
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/protection_table.hh"
#include "core/systems.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/args.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/trace.hh"
#include "workload/model_zoo.hh"

using namespace snpu;

namespace
{

SchedPolicy
policyByName(const std::string &name)
{
    if (name == "fine" || name == "flush_fine")
        return SchedPolicy::flush_fine;
    if (name == "coarse" || name == "flush_coarse")
        return SchedPolicy::flush_coarse;
    if (name == "partition" || name == "part")
        return SchedPolicy::partition;
    if (name == "id" || name == "id_based")
        return SchedPolicy::id_based;
    fatal("unknown isolation policy '", name, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    // secure= defaults by policy: its default depends on tenants=
    // and protection=, so it is resolved after parsing.
    constexpr unsigned secure_by_policy = ~0u;
    unsigned ntenants = 4;
    std::string models;
    unsigned ncores = 2;
    double load = 0.7;
    std::string isolation = "id";
    std::string protection = "guarder";
    unsigned requests = 16;
    unsigned secure = secure_by_policy;
    unsigned capacity = 8;
    unsigned scale = 16;
    std::uint64_t seed = 1;
    bool attest = false;
    std::string corrupt_boot;
    unsigned corrupt_byte = 0;
    unsigned coarse_interval = 5;
    bool stats = false;
    std::string stats_json;
    std::string trace_file;
    bool spans = false;
    ArgSpec("snpu_serve")
        .option("tenants", "tenants to serve (4)", &ntenants)
        .option("models",
                "name,name,...: tenant t runs models[t % k] "
                "(the whole zoo, in order)",
                &models)
        .option("cores", "tiles (2)", &ncores)
        .option("load", "fraction of ideal capacity (0.7)", &load)
        .option("isolation", "fine|coarse|partition|id (id)", &isolation)
        .option("protection", "any registered backend (guarder)",
                &protection)
        .option("requests", "requests per tenant (16)", &requests)
        .option("secure",
                "the first k tenants run secure (tenants/2 under the "
                "guarder, else 0)",
                &secure)
        .option("capacity", "admission queue depth (8)", &capacity)
        .option("scale", "divisor for M dims (16)", &scale)
        .option("seed", "rng seed (1)", &seed)
        .option("attest",
                "secure tenants must pass a measured-boot attestation "
                "handshake at admission, guarder only (0)",
                &attest)
        .option("corrupt_boot",
                "tamper a boot stage before bring-up: rom-loader | "
                "trusted-firmware | teeos+npu-monitor (off)",
                &corrupt_boot)
        .option("corrupt_byte", "image byte the tamper flips (0)",
                &corrupt_byte)
        .option("coarse_interval", "segments between coarse flushes (5)",
                &coarse_interval)
        .option("stats", "dump the full stat group (0)", &stats)
        .option("stats_json", "JSON stat dump to FILE (off)", &stats_json)
        .option("trace_file",
                "record serve-path spans and scheduling decisions "
                "(serve+sched+monitor categories) to FILE (off)",
                &trace_file)
        .option("spans", "per-tenant span summary (0)", &spans)
        .parse(argc, argv);

    // Protection backend selection. Secure tenants need the NPU
    // Monitor, which only the guarder system carries, so non-guarder
    // runs default secure=0.
    requireProtectionBackend(protection);
    const bool guarded = protection == "guarder";
    if (secure == secure_by_policy)
        secure = guarded ? ntenants / 2 : 0;
    if (!guarded && secure > 0) {
        std::fprintf(stderr, "secure tenants need the NPU Monitor "
                             "(protection=guarder)\n");
        return 2;
    }
    if (attest && !guarded) {
        std::fprintf(stderr, "attestation quotes come from the NPU "
                             "Monitor (protection=guarder)\n");
        return 2;
    }

    ServerConfig server_cfg;
    server_cfg.policy = policyByName(isolation);
    server_cfg.num_cores = ncores;
    server_cfg.coarse_interval = coarse_interval;
    server_cfg.attestation = attest;

    // The serving sweeps' one backend->system rule: the guarder
    // serves on the full sNPU system (with the monitor), every other
    // backend on the Normal NPU.
    SocParams soc_params = paramsForBackend(protection);
    soc_params.boot_corrupt_stage = corrupt_boot;
    soc_params.boot_corrupt_byte = corrupt_byte;
    Soc soc(soc_params);
    if (soc.hasMonitor() && !soc.bootReport().ok) {
        std::printf("measured boot HALTED at stage '%s' — the "
                    "measurement register diverged\n",
                    soc.bootReport().failed_stage.c_str());
    }

    // Tenants cycle through the model zoo; the first `secure` of
    // them run confidential models through the NPU Monitor. The
    // offered load is calibrated against the mean ideal service
    // time across the tenant mix.
    std::vector<ModelId> zoo;
    while (!models.empty()) {
        const std::size_t comma = models.find(',');
        zoo.push_back(modelByName(models.substr(0, comma)));
        models = comma == std::string::npos
                     ? std::string()
                     : models.substr(comma + 1);
    }
    if (zoo.empty())
        zoo = allModels();
    std::vector<TenantSpec> tenants(ntenants);
    std::vector<double> service(ntenants);
    double max_service = 0.0;
    for (std::uint32_t t = 0; t < ntenants; ++t) {
        TenantSpec &spec = tenants[t];
        const ModelId model = zoo[t % zoo.size()];
        const World world =
            t < secure ? World::secure : World::normal;
        spec.name = std::string(modelName(model)) + "_" +
                    std::to_string(t);
        spec.task = NpuTask::fromModel(model, world);
        spec.task.model = spec.task.model.scaled(scale);
        spec.queue_capacity = capacity;
        service[t] = SnpuServer::profiledServiceCycles(soc.params(),
                                                       spec.task);
        max_service = std::max(max_service, service[t]);
    }
    // Size the latency histogram to the slowest tenant's service
    // time so the tail percentiles resolve at sane loads and
    // saturate readably past the knee.
    server_cfg.latency_hist_max = 32.0 * max_service;

    // Each tenant offers an equal 1/N share of the target load
    // against its own measured service time, so a heterogeneous mix
    // (alexnet is ~20x mobilenet at the same scale) loads every
    // tenant proportionally instead of drowning the slow models.
    for (std::uint32_t t = 0; t < ntenants; ++t) {
        const double gap =
            meanGapForLoad(load, ntenants, ncores, service[t]);
        Rng rng(seed * 0x9e3779b97f4a7c15ULL + t);
        tenants[t].arrivals = poissonArrivals(rng, gap, requests);
    }

    std::printf("serving %u tenants (%u secure) on %u tiles, "
                "policy=%s, offered load=%.2f, %u req/tenant, "
                "seed=%llu\n",
                ntenants, secure, ncores,
                schedPolicyName(server_cfg.policy), load, requests,
                static_cast<unsigned long long>(seed));

    // Optional serve-path trace: request spans, scheduling
    // decisions and monitor activity.
    std::unique_ptr<FileTraceSink> trace_sink;
    if (!trace_file.empty()) {
        const std::uint32_t mask = traceMask(TraceCategory::serve) |
                                   traceMask(TraceCategory::sched) |
                                   traceMask(TraceCategory::monitor);
        trace_sink =
            std::make_unique<FileTraceSink>(trace_file, mask);
        soc.attachTrace(trace_sink.get());
    }

    SnpuServer server(soc, server_cfg);
    ServeResult res = server.serve(tenants);
    if (!res.ok()) {
        std::fprintf(stderr, "serving failed: %s\n",
                     res.error().c_str());
        return 1;
    }

    std::printf("%-14s %5s %4s %9s %9s %9s %9s %9s %8s %5s\n",
                "tenant", "done", "rej", "thru/Mcy", "p50", "p95",
                "p99", "worst", "monitor", "depth");
    for (const TenantReport &rep : res.tenants) {
        std::printf("%-14s %5u %4u %9.3f %9llu %9llu %9llu %9llu "
                    "%8llu %5u\n",
                    rep.name.c_str(), rep.completed, rep.rejected,
                    rep.throughput,
                    static_cast<unsigned long long>(rep.p50),
                    static_cast<unsigned long long>(rep.p95),
                    static_cast<unsigned long long>(rep.p99),
                    static_cast<unsigned long long>(
                        rep.worst_latency),
                    static_cast<unsigned long long>(
                        rep.monitor_cycles),
                    rep.peak_queue_depth);
    }
    std::printf("makespan %llu cycles, utilization %.1f%%, flush "
                "overhead %llu, monitor overhead %llu\n",
                static_cast<unsigned long long>(res.makespan),
                res.utilization * 100.0,
                static_cast<unsigned long long>(res.flush_overhead),
                static_cast<unsigned long long>(
                    res.monitor_overhead));

    if (attest) {
        std::printf("\n%-14s %8s %7s %7s %10s\n", "tenant",
                    "attested", "hshake", "denied", "cycles");
        for (const TenantReport &rep : res.tenants) {
            std::printf("%-14s %8s %7u %7u %10llu\n",
                        rep.name.c_str(),
                        rep.attested ? "yes" : "no",
                        rep.attest_handshakes, rep.attest_denied,
                        static_cast<unsigned long long>(
                            rep.attest_cycles));
        }
        std::printf("attestation overhead %llu cycles total\n",
                    static_cast<unsigned long long>(
                        res.attest_overhead));
    }

    if (spans) {
        std::printf("\n%-14s %6s %12s %12s %9s %8s\n", "tenant",
                    "spans", "mean queue", "mean exec", "overflow",
                    "clipped");
        for (const TenantReport &rep : res.tenants) {
            std::printf("%-14s %6u %12.1f %12.1f %9llu %8s\n",
                        rep.name.c_str(), rep.spans,
                        rep.mean_queue_cycles, rep.mean_exec_cycles,
                        static_cast<unsigned long long>(
                            rep.latency_overflow),
                        rep.p99_clipped ? "yes" : "no");
        }
    }

    if (stats) {
        std::ostringstream os;
        soc.stats().dump(os);
        std::fputs(os.str().c_str(), stdout);
    }
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
