/**
 * @file
 * attest_sweep — measured-boot attestation cost on the serving
 * admission path (DESIGN.md §3j).
 *
 * Four secure tenants multiplex on two sNPU tiles. Three series run
 * over a request-rate grid (requests per tenant in a fixed-load
 * window):
 *
 *  - baseline:  attestation off — the pre-attestation serving path.
 *  - attested:  attestation on, clean boot — every tenant pays one
 *    quote handshake (dominated by hashing the model image through
 *    the SHA-256 timing model) before its first secure dispatch.
 *  - corrupted: attestation on, with the teeos+npu-monitor boot
 *    stage tampered. The measurement register diverges, every quote
 *    fails verification, and admission denies all requests.
 *
 * The handshake is per-session, so its amortized share of request
 * latency falls as the request rate rises — the sweep's headline
 * curve. Exit-code gates:
 *
 *  1. amortized attestation overhead at the top rate stays under
 *     5% of mean request latency;
 *  2. the corrupted-monitor series admits zero requests (and denies
 *     every offer at admission);
 *  3. with attestation off, the SoC stats registry dump carries no
 *     attestation keys and is byte-identical across repeat runs —
 *     the off-path emits exactly the pre-attestation output.
 */

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/systems.hh"
#include "json_writer.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/args.hh"
#include "sim/random.hh"
#include "sim/sweep_runner.hh"
#include "workload/model_zoo.hh"

using namespace snpu;

namespace
{

constexpr std::uint32_t n_cores = 2;
constexpr std::uint32_t model_scale = 64;
constexpr double load = 0.6;
constexpr double overhead_gate = 0.05;
std::uint64_t seed = 7;

const std::vector<ModelId> models = {
    ModelId::googlenet, ModelId::yololite, ModelId::mobilenet,
    ModelId::resnet};

/** Requests per tenant: the rate axis the handshake amortizes over. */
const std::vector<std::uint32_t> rates = {1, 2, 4, 8, 16};

enum class Series : std::uint8_t { baseline, attested, corrupted };

const char *
seriesName(Series s)
{
    switch (s) {
      case Series::baseline: return "baseline";
      case Series::attested: return "attested";
      case Series::corrupted: return "corrupted";
    }
    return "?";
}

SocParams
paramsFor(Series s)
{
    SocParams params = makeSystem(SystemKind::snpu);
    if (s == Series::corrupted) {
        params.boot_corrupt_stage = "teeos+npu-monitor";
        params.boot_corrupt_byte = 17;
    }
    return params;
}

ServerConfig
configFor(Series s, double max_service)
{
    ServerConfig cfg;
    cfg.num_cores = n_cores;
    cfg.attestation = s != Series::baseline;
    cfg.latency_hist_max = 32.0 * max_service;
    cfg.latency_hist_buckets = 2048;
    return cfg;
}

std::vector<TenantSpec>
makeTenants(const std::vector<double> &service, std::uint32_t rate)
{
    std::vector<TenantSpec> tenants(models.size());
    for (std::uint32_t t = 0; t < models.size(); ++t) {
        TenantSpec &spec = tenants[t];
        spec.name = std::string(modelName(models[t])) + "_" +
                    std::to_string(t);
        spec.task = NpuTask::fromModel(models[t], World::secure);
        spec.task.model = spec.task.model.scaled(model_scale);
        const double gap = meanGapForLoad(
            load, static_cast<std::uint32_t>(models.size()), n_cores,
            service[t]);
        Rng rng(seed * 0x9e3779b97f4a7c15ULL + t);
        spec.arrivals = poissonArrivals(rng, gap, rate);
    }
    return tenants;
}

/** Stats-registry JSON of one attestation-off point, for gate 3. */
std::string
offPathRegistryDump(const std::vector<double> &service,
                    double max_service)
{
    Soc soc(paramsFor(Series::baseline));
    SnpuServer server(soc, configFor(Series::baseline, max_service));
    const ServeResult res = server.serve(makeTenants(service, 4));
    if (!res.ok())
        return {};
    std::ostringstream os;
    soc.registry().dumpJson(os);
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    std::string json_path;
    ArgSpec("attest_sweep")
        .json(&json_path)
        .jobs(&jobs)
        .seed(&seed)
        .parse(argc, argv);

    SweepRunner runner(SweepOptions{jobs});
    std::fprintf(stderr, "attest_sweep: %u host threads "
                         "(--jobs=N or SNPU_JOBS to override)\n",
                 runner.threads());

    // Unloaded service cycles per tenant calibrate the arrival gaps
    // (same profiling path as serve_throughput).
    std::vector<std::function<double(SweepContext &)>> profile_jobs;
    for (ModelId model : models) {
        profile_jobs.push_back([model](SweepContext &) {
            NpuTask task = NpuTask::fromModel(model, World::secure);
            task.model = task.model.scaled(model_scale);
            return SnpuServer::profiledServiceCycles(
                paramsFor(Series::baseline), task);
        });
    }
    const auto profiled = runner.map<double>(profile_jobs);

    std::vector<double> service;
    double max_service = 0.0;
    for (const auto &outcome : profiled) {
        if (!outcome.ok()) {
            std::fprintf(stderr, "profiling failed: %s\n",
                         outcome.status.toString().c_str());
            return 1;
        }
        service.push_back(outcome.value);
        max_service = std::max(max_service, outcome.value);
    }

    const std::vector<Series> series = {
        Series::baseline, Series::attested, Series::corrupted};

    std::vector<std::function<ServeResult(SweepContext &)>> point_jobs;
    for (Series s : series) {
        for (std::uint32_t rate : rates) {
            point_jobs.push_back([&, s, rate](SweepContext &) {
                Soc soc(paramsFor(s));
                SnpuServer server(soc, configFor(s, max_service));
                return server.serve(makeTenants(service, rate));
            });
        }
    }
    const auto points = runner.map<ServeResult>(point_jobs);

    std::printf("attest_sweep: %zu secure tenants on %u tiles, "
                "load=%.2f, scale=%u\n"
                "gate: amortized attestation overhead < %.0f%% of "
                "mean latency at the top rate;\n"
                "      corrupted-monitor boot admits zero requests\n\n",
                models.size(), n_cores, load, model_scale,
                100.0 * overhead_gate);
    std::printf("%-10s %4s %9s %7s %7s %10s %12s %8s\n", "series",
                "rate", "completed", "denied", "hshake", "mean lat",
                "attest/req", "share");

    struct PointRecord
    {
        const char *series;
        std::uint32_t rate;
        std::uint64_t offered;
        std::uint64_t completed;
        std::uint64_t denied;
        std::uint32_t handshakes;
        double mean_latency;
        double attest_per_req;
        double share;
    };
    std::vector<PointRecord> records;

    // Gate accumulators.
    double top_rate_share = 0.0;
    double low_rate_share = 0.0;
    std::uint64_t corrupted_completed = 0;
    std::uint64_t corrupted_offered = 0;
    std::uint64_t corrupted_denied = 0;

    for (std::size_t si = 0; si < series.size(); ++si) {
        for (std::size_t ri = 0; ri < rates.size(); ++ri) {
            const auto &point = points[si * rates.size() + ri];
            if (!point.ok()) {
                std::fprintf(stderr, "%s at rate %u failed: %s\n",
                             seriesName(series[si]), rates[ri],
                             point.status.toString().c_str());
                return 1;
            }
            const ServeResult &res = point.value;
            if (!res.ok()) {
                std::fprintf(stderr, "%s at rate %u failed: %s\n",
                             seriesName(series[si]), rates[ri],
                             res.error().c_str());
                return 1;
            }

            PointRecord rec{};
            rec.series = seriesName(series[si]);
            rec.rate = rates[ri];
            double latency_sum = 0.0;
            for (const TenantReport &rep : res.tenants) {
                rec.offered += rep.completed + rep.rejected +
                               rep.failed;
                rec.completed += rep.completed;
                rec.denied += rep.attest_denied;
                rec.handshakes += rep.attest_handshakes;
                latency_sum += rep.mean_latency * rep.completed;
            }
            rec.mean_latency =
                rec.completed ? latency_sum /
                                    static_cast<double>(rec.completed)
                              : 0.0;
            rec.attest_per_req =
                rec.completed
                    ? static_cast<double>(res.attest_overhead) /
                          static_cast<double>(rec.completed)
                    : 0.0;
            rec.share = rec.mean_latency > 0.0
                            ? rec.attest_per_req / rec.mean_latency
                            : 0.0;
            records.push_back(rec);

            if (series[si] == Series::attested) {
                if (ri == 0)
                    low_rate_share = rec.share;
                if (ri + 1 == rates.size())
                    top_rate_share = rec.share;
            }
            if (series[si] == Series::corrupted) {
                corrupted_completed += rec.completed;
                corrupted_offered += rec.offered;
                corrupted_denied += rec.denied;
            }

            std::printf(
                "%-10s %4u %9llu %7llu %7u %10.0f %12.1f %7.2f%%\n",
                rec.series, rec.rate,
                static_cast<unsigned long long>(rec.completed),
                static_cast<unsigned long long>(rec.denied),
                rec.handshakes, rec.mean_latency, rec.attest_per_req,
                100.0 * rec.share);
        }
        std::printf("\n");
    }

    // Gate 1: the one-time handshake amortizes below the threshold
    // at the top rate (and the curve actually falls).
    const bool amortized = top_rate_share < overhead_gate &&
                           top_rate_share < low_rate_share;
    std::printf("attested overhead share: %.2f%% at rate %u -> "
                "%.2f%% at rate %u (gate < %.0f%%): %s\n",
                100.0 * low_rate_share, rates.front(),
                100.0 * top_rate_share, rates.back(),
                100.0 * overhead_gate, amortized ? "PASS" : "FAIL");

    // Gate 2: a tampered monitor stage is denied at admission —
    // nothing runs, every offer is an attestation denial.
    const bool denial = corrupted_completed == 0 &&
                        corrupted_offered > 0 &&
                        corrupted_denied == corrupted_offered;
    std::printf("corrupted monitor: %llu/%llu admitted, %llu denied "
                "(gate: zero admitted): %s\n",
                static_cast<unsigned long long>(corrupted_completed),
                static_cast<unsigned long long>(corrupted_offered),
                static_cast<unsigned long long>(corrupted_denied),
                denial ? "PASS" : "FAIL");

    // Gate 3: with attestation off, the stats registry is the
    // pre-attestation document — no attest keys (the serve stats are
    // only registered under ServerConfig::attestation), and repeat
    // runs are byte-identical.
    const std::string dump_a = offPathRegistryDump(service,
                                                   max_service);
    const std::string dump_b = offPathRegistryDump(service,
                                                   max_service);
    const bool off_path_clean =
        !dump_a.empty() && dump_a == dump_b &&
        dump_a.find("attest") == std::string::npos;
    std::printf("attestation-off registry: %zu bytes, %s attest "
                "keys, repeat run %s (gate: clean + identical): %s\n",
                dump_a.size(),
                dump_a.find("attest") == std::string::npos ? "no"
                                                           : "HAS",
                dump_a == dump_b ? "identical" : "DIVERGED",
                off_path_clean ? "PASS" : "FAIL");

    const bool ok = amortized && denial && off_path_clean;

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "attest_sweep: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        bench::JsonWriter w(f);
        w.beginObject();
        w.key("bench");
        w.value("attest_sweep");
        w.key("overhead_gate");
        w.value(overhead_gate);
        w.key("points");
        w.beginArray();
        for (const PointRecord &r : records) {
            w.beginObject();
            w.key("series");
            w.value(r.series);
            w.key("rate");
            w.value(r.rate);
            w.key("offered");
            w.value(r.offered);
            w.key("completed");
            w.value(r.completed);
            w.key("attest_denied");
            w.value(r.denied);
            w.key("attest_handshakes");
            w.value(r.handshakes);
            w.key("mean_latency");
            w.value(r.mean_latency);
            w.key("attest_cycles_per_request");
            w.value(r.attest_per_req);
            w.key("overhead_share");
            w.value(r.share);
            w.endObject();
        }
        w.endArray();
        w.key("low_rate_share");
        w.value(low_rate_share);
        w.key("top_rate_share");
        w.value(top_rate_share);
        w.key("amortized");
        w.value(amortized);
        w.key("corrupted_admits_zero");
        w.value(denial);
        w.key("off_path_registry_clean");
        w.value(off_path_clean);
        w.key("gates_pass");
        w.value(ok);
        w.endObject();
        std::fputc('\n', f);
        std::fclose(f);
        std::fprintf(stderr, "attest_sweep: wrote %s\n",
                     json_path.c_str());
    }
    return ok ? 0 : 1;
}
