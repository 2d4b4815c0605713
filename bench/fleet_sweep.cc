/**
 * @file
 * fleet_sweep — fault-tolerant multi-SoC fleet serving under a
 * kill-rate x load grid, with failover on and off.
 *
 * Each sweep point runs a FleetController over N independent SoC
 * fault domains serving one bursty tenant per SoC. The fleet fault
 * plan arms the SoC-scoped sites (soc_crash / soc_hang /
 * soc_degrade) with per-heartbeat probabilities plus a
 * fleet_migration handshake failure rate; every seed derives from
 * the job's submission index only (SweepContext contract), so the
 * whole sweep is byte-identical at any --jobs thread count.
 *
 * Exit gates:
 *  - kill rate 0: the fleet's per-request ledger matches N fully
 *    independent single-SoC serving runs request for request (the
 *    fleet layer adds nothing but the fleet.* stat group);
 *  - top kill rate: evictions actually happened, availability with
 *    failover stays >= 99% with a bounded fleet p99, and the
 *    failover-off baseline completes strictly less (collapse).
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/systems.hh"
#include "fleet/fleet_controller.hh"
#include "json_writer.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/args.hh"
#include "sim/fault_injector.hh"
#include "sim/hashing.hh"
#include "sim/random.hh"
#include "sim/sweep_runner.hh"
#include "workload/model_zoo.hh"

using namespace snpu;

namespace
{

unsigned n_socs = 16;
unsigned n_requests = 8;
constexpr std::uint32_t n_cores = 2;
constexpr std::uint32_t model_scale = 256;
std::uint64_t arrival_seed = 17;

const std::vector<double> loads = {0.3, 0.6};
const std::vector<double> rates = {0.0, 1.0e-3, 3.0e-3};
const std::vector<bool> failovers = {true, false};

/** Per-SoC serving config exactly as the fleet controller derives
 *  it, for the kill-rate-0 parity baseline. */
ServerConfig
nodeServerConfig(double service)
{
    ServerConfig sc;
    sc.policy = SchedPolicy::id_based;
    sc.num_cores = n_cores;
    sc.latency_hist_max = 64.0 * service;
    sc.latency_hist_buckets = 2048;
    sc.max_retries = 2;
    sc.retry_backoff = 500;
    sc.retry_jitter = true;
    sc.quarantine_threshold = 8;
    sc.quarantine_cooldown = static_cast<Tick>(4.0 * service);
    return sc;
}

/** One bursty tenant per SoC; every fourth is secure and every
 *  fourth-plus-one generates tokens (mid-decode kills then exercise
 *  KV re-prefill accounting and the fleet TTFT histogram). */
std::vector<FleetTenantSpec>
makeFleetTenants(double load, double service)
{
    const double gap = meanGapForLoad(load, 1, n_cores, service);
    std::vector<FleetTenantSpec> tenants(n_socs);
    for (std::uint32_t t = 0; t < n_socs; ++t) {
        FleetTenantSpec &ft = tenants[t];
        ft.spec.name = "t" + std::to_string(t);
        ft.spec.task = NpuTask::fromModel(
            ModelId::mobilenet,
            t % 4 == 0 ? World::secure : World::normal);
        ft.spec.task.model = ft.spec.task.model.scaled(model_scale);
        if (t % 4 == 1) {
            ft.spec.decode_tokens = 8;
            ft.spec.decoder = makeDecoder(DecoderId::tinygpt);
        }
        Rng rng(hashMix(arrival_seed, std::uint64_t(t)));
        ft.spec.arrivals =
            burstyArrivals(rng, gap, 4.0, 3.0, n_requests);
        ft.home = t;
        ft.priority = static_cast<std::int32_t>(n_socs - t);
    }
    return tenants;
}

/** Fault horizon covering the busy window only: probing past the
 *  last arrival would mostly kill idle SoCs and test nothing. */
Tick
faultHorizon(const std::vector<FleetTenantSpec> &tenants,
             double service)
{
    Tick last = 0;
    for (const FleetTenantSpec &t : tenants)
        if (!t.spec.arrivals.empty())
            last = std::max(last, t.spec.arrivals.back());
    return last + static_cast<Tick>(2.0 * service);
}

FaultPlan
makeFleetPlan(double rate, std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    const auto arm = [&plan](FaultSite site, double p) {
        FaultSpec spec;
        spec.site = site;
        spec.trigger = FaultTrigger::probability;
        spec.probability = p;
        spec.max_fires = 0;
        plan.faults.push_back(spec);
    };
    // Per-heartbeat kill odds; hangs and cordons ride along at a
    // fraction of the crash rate, and the migration handshake keeps
    // a fixed per-attempt failure rate once anything can die.
    arm(FaultSite::soc_crash, rate);
    arm(FaultSite::soc_hang, rate / 4.0);
    arm(FaultSite::soc_degrade, rate / 8.0);
    arm(FaultSite::fleet_migration, rate > 0.0 ? 0.08 : 0.0);
    return plan;
}

FleetConfig
makeFleetConfig(double rate, double service, bool failover,
                std::uint64_t seed, Tick horizon)
{
    FleetConfig fc;
    fc.num_socs = n_socs;
    fc.soc = makeSystem(SystemKind::snpu);
    fc.server = nodeServerConfig(service);
    fc.heartbeat_interval =
        std::max<Tick>(1, static_cast<Tick>(service / 8.0));
    fc.heartbeat_misses = 3;
    fc.hang_detect_factor = 4;
    fc.horizon = horizon;
    fc.fault_injection = true;
    fc.fault_plan = makeFleetPlan(rate, seed);
    fc.failover = failover;
    fc.migration_retries = 3;
    fc.migration_backoff =
        std::max<Tick>(1, static_cast<Tick>(service / 16.0));
    fc.resettle_cycles =
        std::max<Tick>(1, static_cast<Tick>(service / 64.0));
    fc.breaker_threshold = 4;
    fc.breaker_cooldown = static_cast<Tick>(2.0 * service);
    fc.shed_below_capacity = 0.25;
    fc.latency_hist_max = 64.0 * service;
    fc.latency_hist_buckets = 2048;
    return fc;
}

std::string
tripleLine(Tick arrival, Tick finished, StatusCode code)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "a%llu f%llu s%d;",
                  static_cast<unsigned long long>(arrival),
                  static_cast<unsigned long long>(finished),
                  static_cast<int>(code));
    return buf;
}

/** Sorted multiset of request triples — the order-independent
 *  fingerprint of one tenant's served stream. */
std::string
tripleKey(std::vector<std::string> lines)
{
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string &l : lines)
        out += l;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    std::string json_path;
    ArgSpec("fleet_sweep")
        .json(&json_path)
        .jobs(&jobs)
        .seed(&arrival_seed)
        .option("--socs", "SoCs in the fleet (default 16)", &n_socs)
        .option("--requests", "requests per tenant (default 8)",
                &n_requests)
        .parse(argc, argv);

    SweepRunner runner(SweepOptions{jobs});
    std::fprintf(stderr, "fleet_sweep: %u host threads "
                         "(--jobs=N or SNPU_JOBS to override)\n",
                 runner.threads());

    // Unloaded service time of the (single) tenant model.
    std::vector<std::function<double(SweepContext &)>> profile_jobs;
    profile_jobs.push_back([](SweepContext &) {
        NpuTask task = NpuTask::fromModel(ModelId::mobilenet);
        task.model = task.model.scaled(model_scale);
        return SnpuServer::profiledServiceCycles(
            makeSystem(SystemKind::snpu), task);
    });
    const auto profiled = runner.map<double>(profile_jobs);
    if (!profiled[0].ok()) {
        std::fprintf(stderr, "profiling failed: %s\n",
                     profiled[0].status.toString().c_str());
        return 1;
    }
    const double service = profiled[0].value;

    // The kill-rate x load x failover grid, then the parity
    // baseline: the same tenants served as n_socs fully independent
    // single-SoC windows with the exact per-node config derivation
    // the fleet controller uses. Baseline jobs smuggle their
    // fingerprint out through SocReport::stats_json.
    std::vector<std::function<FleetResult(SweepContext &)>>
        point_jobs;
    for (double load : loads) {
        for (double rate : rates) {
            for (bool fo : failovers) {
                point_jobs.push_back(
                    [load, rate, fo, service](SweepContext &ctx) {
                        const auto tenants =
                            makeFleetTenants(load, service);
                        FleetController fleet(makeFleetConfig(
                            rate, service, fo, ctx.seed(),
                            faultHorizon(tenants, service)));
                        return fleet.run(tenants);
                    });
            }
        }
    }
    for (double load : loads) {
        for (std::uint32_t n = 0; n < n_socs; ++n) {
            point_jobs.push_back(
                [load, n, service](SweepContext &) -> FleetResult {
                    Soc soc(makeSystem(SystemKind::snpu));
                    ServerConfig sc = nodeServerConfig(service);
                    sc.record_requests = true;
                    sc.jitter_seed = fleetSocSeed(sc.jitter_seed, n);
                    SnpuServer server(soc, sc);
                    const auto tenants =
                        makeFleetTenants(load, service);
                    ServeResult res =
                        server.serve({tenants[n].spec});
                    FleetResult wrap;
                    wrap.status = res.status;
                    wrap.socs.resize(1);
                    if (res.ok()) {
                        std::vector<std::string> lines;
                        for (const RequestOutcome &o :
                             res.tenants[0].requests)
                            lines.push_back(tripleLine(
                                o.arrival, o.finished, o.final));
                        wrap.socs[0].stats_json =
                            tripleKey(std::move(lines));
                    }
                    return wrap;
                });
        }
    }
    const auto points = runner.map<FleetResult>(point_jobs);

    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!points[i].ok() || !points[i].value.ok()) {
            std::fprintf(stderr,
                         "fleet_sweep: point %zu failed: %s\n", i,
                         (!points[i].ok()
                              ? points[i].status.toString()
                              : points[i].value.error())
                             .c_str());
            return 1;
        }
    }

    std::printf("fleet_sweep: %u SoCs, 1 bursty tenant each "
                "(every 4th secure), %u req/tenant, scale=%u, "
                "service=%.0f cycles\n"
                "heartbeat=service/8, misses=3, hang factor=4, "
                "migration retries=3, breaker 4 fails / 2x-service "
                "cooldown\n\n",
                n_socs, n_requests, model_scale, service);
    std::printf("%-5s %-7s %-4s %7s %5s %5s %4s %5s %6s %5s %6s "
                "%11s %11s\n",
                "load", "rate", "fo", "avail", "done", "fail",
                "rej", "shed", "evict", "migr", "mfail", "p99",
                "ttft_p99");

    const auto point = [&points](std::size_t li, std::size_t ri,
                                 std::size_t fi)
        -> const FleetResult & {
        return points[(li * rates.size() + ri) * failovers.size() +
                      fi]
            .value;
    };
    const std::size_t grid =
        loads.size() * rates.size() * failovers.size();

    for (std::size_t li = 0; li < loads.size(); ++li) {
        for (std::size_t ri = 0; ri < rates.size(); ++ri) {
            for (std::size_t fi = 0; fi < failovers.size(); ++fi) {
                const FleetResult &res = point(li, ri, fi);
                std::printf(
                    "%-5.2f %-7.4f %-4s %7.4f %5llu %5llu %4llu "
                    "%5llu %6u %5u %6u %11llu %11llu\n",
                    loads[li], rates[ri],
                    failovers[fi] ? "on" : "off", res.availability,
                    static_cast<unsigned long long>(res.completed),
                    static_cast<unsigned long long>(res.failed),
                    static_cast<unsigned long long>(res.rejected),
                    static_cast<unsigned long long>(res.shed),
                    res.evictions, res.migrations,
                    res.migration_failures,
                    static_cast<unsigned long long>(res.p99),
                    static_cast<unsigned long long>(res.ttft_p99));
            }
        }
        std::printf("\n");
    }

    // Gate 1: at kill rate 0 the fleet is exactly N independent
    // SoCs — same per-request outcomes, nothing fleet-only.
    bool parity = true;
    for (std::size_t li = 0; li < loads.size() && parity; ++li) {
        const FleetResult &fleet = point(li, 0, 0);
        if (fleet.evictions != 0 || fleet.migrations != 0 ||
            fleet.shed != 0 ||
            fleet.offered !=
                static_cast<std::uint64_t>(n_socs) * n_requests) {
            parity = false;
            break;
        }
        for (std::uint32_t n = 0; n < n_socs; ++n) {
            std::vector<std::string> lines;
            for (const FleetRequest &req : fleet.requests[n])
                lines.push_back(tripleLine(
                    req.arrival, req.finished, req.final));
            const FleetResult &solo =
                points[grid + li * n_socs + n].value;
            if (tripleKey(std::move(lines)) !=
                solo.socs[0].stats_json) {
                parity = false;
                break;
            }
        }
    }

    // Gate 2: at the top kill rate, failover keeps availability
    // >= 99% with a bounded p99 while failover-off completes
    // strictly less (collapse).
    bool gates_ok = parity;
    const std::size_t top = rates.size() - 1;
    for (std::size_t li = 0; li < loads.size(); ++li) {
        const FleetResult &on = point(li, top, 0);
        const FleetResult &off = point(li, top, 1);
        const FleetResult &calm = point(li, 0, 0);
        if (on.evictions == 0) {
            std::fprintf(stderr,
                         "gate: no evictions at top kill rate "
                         "(load %.2f) -- raise the rate grid\n",
                         loads[li]);
            gates_ok = false;
        }
        if (on.availability < 0.99) {
            std::fprintf(stderr,
                         "gate: availability %.4f < 0.99 with "
                         "failover at load %.2f\n",
                         on.availability, loads[li]);
            gates_ok = false;
        }
        if (calm.p99 > 0 && on.p99 > 20 * calm.p99) {
            std::fprintf(stderr,
                         "gate: fleet p99 unbounded under kills "
                         "(%llu vs calm %llu) at load %.2f\n",
                         static_cast<unsigned long long>(on.p99),
                         static_cast<unsigned long long>(calm.p99),
                         loads[li]);
            gates_ok = false;
        }
        if (off.completed >= on.completed) {
            std::fprintf(stderr,
                         "gate: failover-off did not collapse "
                         "(%llu >= %llu completed) at load %.2f\n",
                         static_cast<unsigned long long>(
                             off.completed),
                         static_cast<unsigned long long>(
                             on.completed),
                         loads[li]);
            gates_ok = false;
        }
    }

    std::printf("kill-0 parity %s; failover gates %s\n",
                parity ? "holds" : "VIOLATED",
                gates_ok ? "hold" : "VIOLATED");

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "fleet_sweep: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        bench::JsonWriter w(f);
        w.beginObject();
        w.key("bench");
        w.value("fleet_sweep");
        w.key("socs");
        w.value(static_cast<std::uint64_t>(n_socs));
        w.key("requests_per_tenant");
        w.value(static_cast<std::uint64_t>(n_requests));
        w.key("service_cycles");
        w.value(service);
        w.key("points");
        w.beginArray();
        for (std::size_t li = 0; li < loads.size(); ++li) {
            for (std::size_t ri = 0; ri < rates.size(); ++ri) {
                for (std::size_t fi = 0; fi < failovers.size();
                     ++fi) {
                    const FleetResult &res = point(li, ri, fi);
                    w.beginObject();
                    w.key("load");
                    w.value(loads[li]);
                    w.key("kill_rate");
                    w.value(rates[ri]);
                    w.key("failover");
                    w.value(failovers[fi]);
                    w.key("availability");
                    w.value(res.availability);
                    w.key("offered");
                    w.value(res.offered);
                    w.key("completed");
                    w.value(res.completed);
                    w.key("failed");
                    w.value(res.failed);
                    w.key("rejected");
                    w.value(res.rejected);
                    w.key("shed");
                    w.value(res.shed);
                    w.key("evictions");
                    w.value(res.evictions);
                    w.key("migrations");
                    w.value(res.migrations);
                    w.key("migration_failures");
                    w.value(res.migration_failures);
                    w.key("breaker_trips");
                    w.value(res.breaker_trips);
                    w.key("breaker_probes");
                    w.value(res.breaker_probes);
                    w.key("breaker_readmissions");
                    w.value(res.breaker_readmissions);
                    w.key("re_prefills");
                    w.value(res.re_prefills);
                    w.key("lost_tokens");
                    w.value(res.lost_tokens);
                    w.key("migration_cycles");
                    w.value(static_cast<std::uint64_t>(
                        res.migration_cycles));
                    w.key("makespan");
                    w.value(static_cast<std::uint64_t>(
                        res.makespan));
                    w.key("p50");
                    w.value(static_cast<std::uint64_t>(res.p50));
                    w.key("p95");
                    w.value(static_cast<std::uint64_t>(res.p95));
                    w.key("p99");
                    w.value(static_cast<std::uint64_t>(res.p99));
                    w.key("ttft_p50");
                    w.value(
                        static_cast<std::uint64_t>(res.ttft_p50));
                    w.key("ttft_p99");
                    w.value(
                        static_cast<std::uint64_t>(res.ttft_p99));
                    w.endObject();
                }
            }
        }
        w.endArray();
        w.key("kill0_parity");
        w.value(parity);
        w.key("gates_ok");
        w.value(gates_ok);
        w.endObject();
        std::fputc('\n', f);
        std::fclose(f);
        std::fprintf(stderr, "fleet_sweep: wrote %s\n",
                     json_path.c_str());
    }
    return gates_ok ? 0 : 1;
}
