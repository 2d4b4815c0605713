/**
 * @file
 * fault_sweep — Monte Carlo fault injection across the four Table I
 * isolation policies under the multi-tenant serving engine.
 *
 * Each sweep point arms a FaultPlan with probability triggers at the
 * cross-layer sites (DMA transfer errors, Guarder denials, silent
 * scratchpad bit flips, task hangs) and serves the same tenant mix
 * with deadlines, bounded retry and the per-tenant circuit breaker
 * enabled. The plan's Rng seed derives from the job's submission
 * index only (SweepContext contract), so the whole sweep is
 * byte-identical at any --jobs thread count.
 *
 * What to look for:
 *  - rate 0: every policy serves exactly its fault-free schedule —
 *    zero faults observed, zero failures (the injector is armed but
 *    silent, demonstrating the zero-overhead-when-off contract);
 *  - rising rates: retries absorb transient faults first; terminal
 *    failures and timeouts appear as the retry budget saturates, and
 *    recovery cycles (scrub + window revoke) grow on the critical
 *    path.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/systems.hh"
#include "json_writer.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/args.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"
#include "sim/sweep_runner.hh"
#include "workload/model_zoo.hh"

using namespace snpu;

namespace
{

constexpr std::uint32_t n_cores = 2;
constexpr std::uint32_t n_requests = 6;
constexpr std::uint32_t model_scale = 256;
std::uint64_t arrival_seed = 11;
constexpr double offered_load = 0.4;

struct TenantPlan
{
    ModelId model;
    World world;
};

const std::vector<TenantPlan> plans = {
    {ModelId::googlenet, World::secure},
    {ModelId::mobilenet, World::normal},
    {ModelId::yololite, World::normal},
    {ModelId::resnet, World::normal},
};

/**
 * Backends under injected faults (PR 5 follow-on): the Guarder on
 * the sNPU system, and the crypto engine on the normal system —
 * the DMA/hang/bit-flip sites and the recovery machinery are
 * backend-independent, so both must degrade gracefully (the
 * guarder_check site simply never probes without a Guarder, and
 * crypto runs carry no secure world absent the NPU Monitor).
 */
const std::vector<std::string> backends = {"guarder", "crypto"};

std::vector<TenantSpec>
makeTenants(const std::string &backend,
            const std::vector<double> &service)
{
    std::vector<TenantSpec> tenants(plans.size());
    for (std::uint32_t t = 0; t < plans.size(); ++t) {
        TenantSpec &spec = tenants[t];
        spec.name = std::string(modelName(plans[t].model)) + "_" +
                    std::to_string(t);
        spec.task = NpuTask::fromModel(
            plans[t].model, worldForBackend(backend, plans[t].world));
        spec.task.model = spec.task.model.scaled(model_scale);
        const double gap = meanGapForLoad(
            offered_load, static_cast<std::uint32_t>(plans.size()),
            n_cores, service[t]);
        Rng rng(arrival_seed * 0x9e3779b97f4a7c15ULL + t);
        spec.arrivals = poissonArrivals(rng, gap, n_requests);
    }
    return tenants;
}

FaultPlan
makePlan(double rate, std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    const auto arm = [&plan](FaultSite site, double p) {
        FaultSpec spec;
        spec.site = site;
        spec.trigger = FaultTrigger::probability;
        spec.probability = p;
        spec.max_fires = 0; // unlimited
        plan.faults.push_back(spec);
    };
    // Per-probe probabilities: the DMA and Guarder sites see
    // hundreds of probes per request, so headline "rate" is scaled
    // down per site to keep per-attempt fault odds in a regime
    // where the retry budget matters (instead of every attempt
    // dying).
    arm(FaultSite::dma_transfer, rate);
    arm(FaultSite::guarder_check, rate / 8.0);
    arm(FaultSite::spad_bit_flip, rate / 100.0);
    arm(FaultSite::task_hang, rate / 2.0);
    return plan;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    std::string json_path;
    ArgSpec("fault_sweep")
        .json(&json_path)
        .jobs(&jobs)
        .seed(&arrival_seed)
        .parse(argc, argv);

    SweepRunner runner(SweepOptions{jobs});
    std::fprintf(stderr, "fault_sweep: %u host threads "
                         "(--jobs=N or SNPU_JOBS to override)\n",
                 runner.threads());

    // Unloaded service time per backend x tenant (for the arrival
    // process; the crypto engine's service times differ).
    std::vector<std::function<double(SweepContext &)>> profile_jobs;
    profile_jobs.reserve(backends.size() * plans.size());
    for (const std::string &backend : backends) {
        for (const TenantPlan &plan : plans) {
            profile_jobs.push_back([&backend, plan](SweepContext &) {
                NpuTask task = NpuTask::fromModel(
                    plan.model, worldForBackend(backend, plan.world));
                task.model = task.model.scaled(model_scale);
                return SnpuServer::profiledServiceCycles(
                    paramsForBackend(backend), task);
            });
        }
    }
    const auto profiled = runner.map<double>(profile_jobs);

    std::vector<std::vector<double>> service(backends.size());
    std::vector<double> max_service(backends.size(), 0.0);
    for (std::size_t b = 0; b < backends.size(); ++b) {
        for (std::size_t t = 0; t < plans.size(); ++t) {
            const auto &outcome = profiled[b * plans.size() + t];
            if (!outcome.ok()) {
                std::fprintf(stderr, "profiling failed: %s\n",
                             outcome.status.toString().c_str());
                return 1;
            }
            service[b].push_back(outcome.value);
            max_service[b] = std::max(max_service[b], outcome.value);
        }
    }

    const std::vector<SchedPolicy> policies = {
        SchedPolicy::flush_fine, SchedPolicy::flush_coarse,
        SchedPolicy::partition, SchedPolicy::id_based};
    const std::vector<double> rates = {0.0, 2.0e-4, 1.0e-3};

    struct Point
    {
        ServeResult res;
        std::uint64_t fires = 0;
    };

    std::vector<std::function<Point(SweepContext &)>> point_jobs;
    point_jobs.reserve(backends.size() * policies.size() *
                       rates.size());
    for (std::size_t b = 0; b < backends.size(); ++b) {
        for (SchedPolicy policy : policies) {
            for (double rate : rates) {
                point_jobs.push_back(
                    [&, b, policy, rate](SweepContext &ctx) {
                        Soc soc(paramsForBackend(backends[b]));
                        ServerConfig cfg;
                        cfg.policy = policy;
                        cfg.num_cores = n_cores;
                        cfg.latency_hist_max =
                            64.0 * max_service[b];
                        cfg.latency_hist_buckets = 2048;
                        cfg.fault_injection = true;
                        cfg.fault_plan = makePlan(rate, ctx.seed());
                        cfg.default_deadline = static_cast<Tick>(
                            48.0 * max_service[b]);
                        cfg.max_retries = 2;
                        cfg.retry_backoff = 500;
                        cfg.quarantine_threshold = 8;
                        SnpuServer server(soc, cfg);
                        Point point;
                        point.res = server.serve(
                            makeTenants(backends[b], service[b]));
                        point.fires =
                            server.faultInjector()->fireCount();
                        return point;
                    });
            }
        }
    }
    const auto points = runner.map<Point>(point_jobs);

    std::printf("fault_sweep: %zu tenants (1 secure under the "
                "guarder) on %u tiles, %u req/tenant, scale=%u, "
                "load=%.2f\n"
                "deadline=48x service, retries=2, backoff=500, "
                "quarantine after 8 consecutive faults\n\n",
                plans.size(), n_cores, n_requests, model_scale,
                offered_load);
    std::printf("%-8s %-13s %7s %6s %5s %5s %5s %5s %4s %5s %10s\n",
                "backend", "policy", "rate", "fires", "done", "fail",
                "retry", "tmout", "rej", "quar", "recovery");

    struct PointRecord
    {
        const char *backend;
        const char *policy;
        double rate;
        std::uint64_t fires;
        std::uint32_t done, fail, retry, tmout, rej, quar;
        std::uint64_t recovery;
    };
    std::vector<PointRecord> records;

    bool clean_baseline = true;
    for (std::size_t b = 0; b < backends.size(); ++b) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            for (std::size_t ri = 0; ri < rates.size(); ++ri) {
                const auto &point =
                    points[(b * policies.size() + p) * rates.size() +
                           ri];
                if (!point.ok()) {
                    std::fprintf(
                        stderr, "%s/%s at rate %.2f failed: %s\n",
                        backends[b].c_str(),
                        schedPolicyName(policies[p]), rates[ri],
                        point.status.toString().c_str());
                    return 1;
                }
                const ServeResult &res = point.value.res;
                if (!res.ok()) {
                    std::fprintf(stderr,
                                 "%s/%s at rate %.2f failed: %s\n",
                                 backends[b].c_str(),
                                 schedPolicyName(policies[p]),
                                 rates[ri], res.error().c_str());
                    return 1;
                }
                std::uint32_t done = 0, fail = 0, retry = 0,
                              tmout = 0, rej = 0, quar = 0;
                for (const TenantReport &rep : res.tenants) {
                    done += rep.completed;
                    fail += rep.failed;
                    retry += rep.retries;
                    tmout += rep.timeouts;
                    rej += rep.rejected;
                    quar += rep.quarantined ? 1 : 0;
                }
                if (rates[ri] == 0.0 &&
                    (point.value.fires != 0 || fail != 0))
                    clean_baseline = false;
                records.push_back({backends[b].c_str(),
                                   schedPolicyName(policies[p]),
                                   rates[ri], point.value.fires,
                                   done, fail, retry, tmout, rej,
                                   quar, res.recovery_overhead});
                std::printf("%-8s %-13s %7.4f %6llu %5u %5u %5u "
                            "%5u %4u %5u %10llu\n",
                            backends[b].c_str(),
                            schedPolicyName(policies[p]), rates[ri],
                            static_cast<unsigned long long>(
                                point.value.fires),
                            done, fail, retry, tmout, rej, quar,
                            static_cast<unsigned long long>(
                                res.recovery_overhead));
            }
            std::printf("\n");
        }
    }

    std::printf("rate-0 baseline %s: armed injector fired nothing "
                "and nothing failed\n",
                clean_baseline ? "clean" : "VIOLATED");

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "fault_sweep: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        bench::JsonWriter w(f);
        w.beginObject();
        w.key("bench");
        w.value("fault_sweep");
        w.key("points");
        w.beginArray();
        for (const PointRecord &r : records) {
            w.beginObject();
            w.key("backend");
            w.value(r.backend);
            w.key("policy");
            w.value(r.policy);
            w.key("rate");
            w.value(r.rate);
            w.key("fires");
            w.value(r.fires);
            w.key("completed");
            w.value(r.done);
            w.key("failed");
            w.value(r.fail);
            w.key("retries");
            w.value(r.retry);
            w.key("timeouts");
            w.value(r.tmout);
            w.key("rejected");
            w.value(r.rej);
            w.key("quarantined");
            w.value(r.quar);
            w.key("recovery_overhead");
            w.value(r.recovery);
            w.endObject();
        }
        w.endArray();
        w.key("clean_baseline");
        w.value(clean_baseline);
        w.endObject();
        std::fputc('\n', f);
        std::fclose(f);
        std::fprintf(stderr, "fault_sweep: wrote %s\n",
                     json_path.c_str());
    }
    return clean_baseline ? 0 : 1;
}
