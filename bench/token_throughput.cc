/**
 * @file
 * token_throughput — per-token secure-memory fast path, cached vs
 * first-fit, across protection backends.
 *
 * Three tinygpt tenants generate under continuous batching on two
 * tiles; every decode step allocates one KV block through the
 * serving KV pool (the NPU Monitor's own pool under the Guarder, a
 * server-local pool elsewhere). Each backend runs the identical
 * window twice:
 *
 *  - cached:    ServerConfig::kv_pool_caching = true. Steady-state
 *               decode hits the size-class pool (a list pop in the
 *               untrusted runtime, no monitor round trip);
 *  - first_fit: kv_pool_caching = false. Every token pays the
 *               trampoline into the monitor plus the first-fit walk
 *               over an arena that fills with live KV blocks.
 *
 * The headline number is modeled KV-allocation cycles per decode
 * token; the bench exits nonzero unless the cached path is at least
 * min_speedup (5x) cheaper on every backend. Two side checks ride
 * along, mirroring the test suite at bench scale:
 *
 *  - the per-pool current/peak/allocated/freed counters must appear
 *    in the SoC's registry JSON (monitor_pool / serve_kv_pool);
 *  - a warm rerun of the cached guarder point must replay decode
 *    steps from core/timing_cache with a byte-identical registry
 *    JSON (skipped when SNPU_TIMING_CACHE=0).
 *
 * Only serving-capable backends run by default (guarder, crypto,
 * passthrough — the TrustZone IOMMU strawman has no per-stream VA
 * provisioning); --protection=NAME restricts to one backend, and a
 * table name outside the default set runs on the normal system like
 * fig13's generic series.
 */

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/protection_table.hh"
#include "core/systems.hh"
#include "core/timing_cache.hh"
#include "json_writer.hh"
#include "serve/server.hh"
#include "sim/args.hh"
#include "sim/sweep_runner.hh"
#include "workload/model_zoo.hh"

using namespace snpu;
using bench::banner;
using bench::big;
using bench::JsonReport;
using bench::num;
using bench::Table;

namespace
{

constexpr std::uint32_t n_cores = 2;
constexpr std::uint32_t n_tenants = 3;
constexpr std::uint32_t n_requests = 4;
constexpr std::uint32_t decode_tokens = 16;
constexpr double min_speedup = 5.0;

std::vector<TenantSpec>
makeTenants(const std::string &backend)
{
    // All requests arrive at tick 0: the window measures saturated
    // steady-state decode, not queueing, and stays deterministic
    // without a load-calibration phase.
    std::vector<TenantSpec> tenants(n_tenants);
    const DecoderSpec decoder = makeDecoder(DecoderId::tinygpt);
    for (std::uint32_t t = 0; t < n_tenants; ++t) {
        TenantSpec &spec = tenants[t];
        spec.name = "gpt_" + std::to_string(t);
        spec.task.name = spec.name;
        spec.task.world = worldForBackend(backend, World::secure);
        spec.task.priority = 1;
        spec.arrivals.assign(n_requests, 0);
        spec.queue_capacity = n_requests;
        spec.decode_tokens = decode_tokens;
        spec.decoder = decoder;
    }
    return tenants;
}

/** One sweep point: a full serving window plus pool observables. */
struct TokenPoint
{
    ServeResult res;
    std::uint64_t tokens = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t splits = 0;
    std::uint64_t coalesces = 0;
    std::uint64_t flushes = 0;
    Tick kv_alloc_cycles = 0;
    /** Per-pool byte counters present in the registry JSON dump. */
    bool stats_in_json = false;
};

TokenPoint
runPoint(const std::string &backend, bool cached)
{
    SystemOverrides o;
    o.protection = backend;
    auto soc = buildSoc(systemForBackend(backend), o);

    ServerConfig cfg;
    cfg.policy = SchedPolicy::id_based;
    cfg.num_cores = n_cores;
    cfg.kv_pool_caching = cached;
    // All arrivals land at tick 0, so request latency is dominated
    // by queueing; widen the histogram so the tail stays real.
    cfg.latency_hist_max = 4.0e7;
    SnpuServer server(*soc, cfg);

    TokenPoint point;
    point.res = server.serve(makeTenants(backend));
    for (const TenantReport &rep : point.res.tenants) {
        point.tokens += rep.tokens;
        point.kv_alloc_cycles += rep.kv_alloc_cycles;
    }
    if (const CachingTrustedAllocator *pool = server.kvPool()) {
        point.hits = pool->hits();
        point.misses = pool->misses();
        point.splits = pool->splitCount();
        point.coalesces = pool->coalesceCount();
        point.flushes = pool->flushCount();
    }

    std::ostringstream os;
    soc->registry().dumpJson(os);
    const std::string json = os.str();
    const bool named =
        json.find("monitor_pool") != std::string::npos ||
        json.find("serve_kv_pool") != std::string::npos;
    point.stats_in_json =
        named &&
        json.find("small_current_bytes") != std::string::npos &&
        json.find("small_peak_bytes") != std::string::npos &&
        json.find("small_allocated_bytes") != std::string::npos &&
        json.find("small_freed_bytes") != std::string::npos &&
        json.find("large_current_bytes") != std::string::npos &&
        json.find("pool_hits") != std::string::npos;
    return point;
}

/** Registry dump of one cached serving window (parity probe). */
std::string
registryDump(const std::string &backend)
{
    SystemOverrides o;
    o.protection = backend;
    auto soc = buildSoc(systemForBackend(backend), o);
    ServerConfig cfg;
    cfg.policy = SchedPolicy::id_based;
    cfg.num_cores = n_cores;
    cfg.latency_hist_max = 4.0e7;
    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve(makeTenants(backend));
    if (!res.ok()) {
        std::fprintf(stderr, "parity run failed: %s\n",
                     res.error().c_str());
        return {};
    }
    std::ostringstream os;
    soc->registry().dumpJson(os);
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string filter;
    unsigned jobs = 0;
    ArgSpec("token_throughput")
        .json(&json_path)
        .jobs(&jobs)
        .protection(&filter)
        .parse(argc, argv);

    std::vector<std::string> backends = {"guarder", "crypto",
                                         "passthrough"};
    if (!filter.empty()) {
        requireProtectionBackend(filter);
        backends = {filter};
    }

    SweepRunner runner(SweepOptions{jobs});
    std::fprintf(stderr, "token_throughput: %u host threads "
                         "(--jobs=N or SNPU_JOBS to override)\n",
                 runner.threads());

    // backend x {cached, first_fit}; every point is an independent
    // SoC, so the grid fans out across host cores and stdout stays
    // byte-identical for any --jobs.
    std::vector<std::function<TokenPoint(SweepContext &)>> point_jobs;
    for (const std::string &backend : backends)
        for (bool cached : {true, false})
            point_jobs.push_back([&backend, cached](SweepContext &) {
                return runPoint(backend, cached);
            });
    const auto points = runner.map<TokenPoint>(point_jobs);

    banner("token_throughput",
           "Per-token KV-allocation cycles: caching pool vs "
           "first-fit arena");
    std::printf("%u tinygpt tenants on %u tiles, %u req/tenant, "
                "%u decode tokens/req; gate: cached path >= %.0fx "
                "cheaper per token\n\n",
                n_tenants, n_cores, n_requests, decode_tokens,
                min_speedup);

    Table table({"backend", "mode", "tokens", "kv cycles",
                 "cycles/token", "pool hits", "pool misses",
                 "splits", "coalesces"});
    Table summary({"backend", "first_fit cy/tok", "cached cy/tok",
                   "speedup", "verdict"});

    bool ok = true;
    bool stats_ok = true;
    double min_ratio = -1.0;
    for (std::size_t b = 0; b < backends.size(); ++b) {
        double per_token[2] = {0.0, 0.0}; // [cached, first_fit]
        for (std::size_t m = 0; m < 2; ++m) {
            const auto &outcome = points[b * 2 + m];
            if (!outcome.ok()) {
                std::fprintf(stderr, "%s (%s) failed: %s\n",
                             backends[b].c_str(),
                             m == 0 ? "cached" : "first_fit",
                             outcome.status.toString().c_str());
                return 1;
            }
            const TokenPoint &p = outcome.value;
            if (!p.res.ok()) {
                std::fprintf(stderr, "%s (%s) failed: %s\n",
                             backends[b].c_str(),
                             m == 0 ? "cached" : "first_fit",
                             p.res.error().c_str());
                return 1;
            }
            if (p.tokens == 0) {
                std::fprintf(stderr, "%s: no decode tokens retired\n",
                             backends[b].c_str());
                return 1;
            }
            stats_ok &= p.stats_in_json;
            per_token[m] = static_cast<double>(p.kv_alloc_cycles) /
                           static_cast<double>(p.tokens);
            table.row({backends[b],
                       m == 0 ? "cached" : "first_fit", big(p.tokens),
                       big(p.kv_alloc_cycles), num(per_token[m]),
                       big(p.hits), big(p.misses), big(p.splits),
                       big(p.coalesces)});
        }
        const double ratio = per_token[1] / per_token[0];
        if (min_ratio < 0.0 || ratio < min_ratio)
            min_ratio = ratio;
        const bool pass = ratio >= min_speedup;
        ok &= pass;
        summary.row({backends[b], num(per_token[1]),
                     num(per_token[0]), num(ratio) + "x",
                     pass ? "PASS" : "FAIL"});
    }
    table.print();
    std::printf("\n");
    summary.print();
    std::printf("\nper-pool stats in registry JSON: %s\n",
                stats_ok ? "present" : "MISSING");
    ok &= stats_ok;

    // Warm-replay parity: the same cached window twice in a row.
    // The second run's decode steps replay from core/timing_cache
    // (the KV-allocation charge is paid by the token transition,
    // outside the memoized bracket), so the registries must agree byte for
    // byte.
    std::string parity = "skipped";
    if (TimingCache::enabled()) {
        TimingCache &cache = TimingCache::global();
        const std::string live = registryDump(backends.front());
        const std::uint64_t hits_before = cache.hits();
        const std::string warm = registryDump(backends.front());
        if (live.empty() || warm.empty())
            return 1;
        const bool hit = cache.hits() > hits_before;
        parity = live == warm && hit ? "ok" : "MISMATCH";
        std::printf("timing-cache warm replay (%s): %s%s\n",
                    backends.front().c_str(), parity.c_str(),
                    hit ? "" : " (warm run never hit the cache)");
        ok &= parity == "ok";
    } else {
        std::printf("timing-cache warm replay: skipped "
                    "(SNPU_TIMING_CACHE=0)\n");
    }

    JsonReport report("token_throughput");
    report.table("points", table);
    report.table("summary", summary);
    report.metric("min_speedup_gate", min_speedup);
    report.metric("min_speedup_measured", min_ratio);
    report.metric("pool_stats_in_registry",
                  stats_ok ? std::string("present")
                           : std::string("missing"));
    report.metric("timing_cache_parity", parity);
    report.metric("protection_filter",
                  filter.empty() ? std::string("all") : filter);
    if (!report.write(json_path))
        return 1;
    return ok ? 0 : 1;
}
