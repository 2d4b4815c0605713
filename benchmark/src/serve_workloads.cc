/**
 * @file
 * The serving workloads. An op is one serving window: a fresh Soc plus
 * SnpuServer::serve over seeded open-loop arrivals (Poisson in
 * simulated time); the host drives windows closed-loop, one at a time.
 *
 *  - serve_warm: the serve_throughput tenant mix (8 tenants, 2 secure,
 *    2 tiles) under id_based and flush_fine, below and above the knee,
 *    on the guarder (attestation on) and crypto backends. The set-up
 *    runs every window once, so timed windows replay from the timing
 *    cache.
 *  - llm_faults: continuous-batching decode (tinygpt and gpt2s) with a
 *    low-rate seeded FaultPlan. An armed injector makes every memoized
 *    op bypass the cache, so every decode step executes live.
 */

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/systems.hh"
#include "core/timing_cache.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/random.hh"
#include "workloads.hh"

using namespace snpu;

namespace snpubench
{

namespace
{

/** One serving window's inputs. */
struct Window
{
    SocParams params;
    ServerConfig cfg;
    std::vector<TenantSpec> tenants;
};

/** A seed for stream @p b of window @p a of run seed @p seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    return seed * 0x9e3779b97f4a7c15ull + a * 0xbf58476d1ce4e5b9ull +
           b * 0x94d049bb133111ebull + 1;
}

SocParams
paramsFor(const std::string &backend)
{
    if (backend == "guarder")
        return makeSystem(SystemKind::snpu);
    SocParams params = makeSystem(SystemKind::normal_npu);
    params.protection = backend;
    return params;
}

/** Fold every simulated output of a window into @p d. */
void
digestServe(const ServeResult &res, Digest &d)
{
    d.add(static_cast<std::uint64_t>(res.code()))
        .add(res.cycles)
        .add(res.makespan)
        .add(res.utilization)
        .add(res.flush_overhead)
        .add(res.monitor_overhead)
        .add(res.recovery_overhead)
        .add(res.token_alloc_overhead)
        .add(res.attest_overhead);
    for (const TenantReport &t : res.tenants) {
        d.add(t.name)
            .add(std::uint64_t{t.completed})
            .add(std::uint64_t{t.rejected})
            .add(t.throughput)
            .add(t.p50)
            .add(t.p95)
            .add(t.p99)
            .add(t.worst_latency)
            .add(t.mean_latency)
            .add(t.monitor_cycles)
            .add(std::uint64_t{t.peak_queue_depth})
            .add(t.attest_cycles)
            .add(std::uint64_t{t.attest_handshakes})
            .add(std::uint64_t{t.attest_denied})
            .add(std::uint64_t{t.attested})
            .add(std::uint64_t{t.failed})
            .add(std::uint64_t{t.retries})
            .add(std::uint64_t{t.timeouts})
            .add(std::uint64_t{t.faults_observed})
            .add(std::uint64_t{t.quarantined})
            .add(std::uint64_t{t.breaker_trips})
            .add(std::uint64_t{t.breaker_probes})
            .add(std::uint64_t{t.breaker_readmissions})
            .add(std::uint64_t{t.spans})
            .add(t.mean_queue_cycles)
            .add(t.mean_exec_cycles)
            .add(t.latency_overflow)
            .add(t.tokens)
            .add(t.ttft_p50)
            .add(t.ttft_p95)
            .add(t.ttft_p99)
            .add(t.token_p50)
            .add(t.token_p95)
            .add(t.token_p99)
            .add(t.kv_alloc_cycles);
        for (const RequestOutcome &q : t.requests) {
            d.add(q.arrival)
                .add(q.finished)
                .add(static_cast<std::uint64_t>(q.final))
                .add(std::uint64_t{q.rejected})
                .add(q.prefill_done)
                .add(std::uint64_t{q.retries});
            for (Tick tick : q.token_ticks)
                d.add(tick);
        }
    }
}

/** Serving counters every op records (cheap; guards read some). */
void
countServe(const Window &w, const ServeResult &res,
           const SnpuServer &server, Counters &c)
{
    double offered = 0;
    for (const TenantSpec &t : w.tenants)
        offered += static_cast<double>(t.arrivals.size());
    c.add("serve.requests_offered", offered);
    Tick p99 = 0, ttft = 0, itl = 0;
    for (const TenantReport &t : res.tenants) {
        c.add("serve.completed", t.completed);
        c.add("serve.rejected", t.rejected);
        c.add("serve.failed", t.failed);
        c.add("serve.retries", t.retries);
        c.add("serve.timeouts", t.timeouts);
        c.add("serve.breaker_trips", t.breaker_trips);
        c.add("serve.tokens", static_cast<double>(t.tokens));
        c.add("serve.spans", t.spans);
        c.add("serve.queue_wait_sum", t.mean_queue_cycles * t.spans);
        c.add("serve.exec_sum", t.mean_exec_cycles * t.spans);
        c.add("tee.attest_handshakes", t.attest_handshakes);
        p99 = std::max(p99, t.p99);
        ttft = std::max(ttft, t.ttft_p99);
        itl = std::max(itl, t.token_p99);
        for (const RequestOutcome &q : t.requests)
            if (q.retries > 0 && q.final == StatusCode::ok)
                c.add("serve.retry_successes", 1);
    }
    c.add("serve.p99_latency_cycles", static_cast<double>(p99));
    c.add("serve.ttft_p99_cycles", static_cast<double>(ttft));
    c.add("serve.itl_p99_cycles", static_cast<double>(itl));
    c.add("serve.flush_overhead_cycles",
          static_cast<double>(res.flush_overhead));
    c.add("serve.monitor_overhead_cycles",
          static_cast<double>(res.monitor_overhead));
    c.add("serve.recovery_overhead_cycles",
          static_cast<double>(res.recovery_overhead));
    c.add("tee.kv_alloc_cycles",
          static_cast<double>(res.token_alloc_overhead));
    if (const CachingTrustedAllocator *pool = server.kvPool()) {
        c.add("tee.kv_pool_hits", static_cast<double>(pool->hits()));
        c.add("tee.kv_pool_misses", static_cast<double>(pool->misses()));
    }
    if (const FaultInjector *inj = server.faultInjector())
        c.add("sim.faults_fired", static_cast<double>(inj->fireCount()));
}

/** One serving window on a fresh SoC. */
OpResult
serveWindow(const Window &w, Probe &probe)
{
    OpResult r;
    std::unique_ptr<Soc> soc;
    std::unique_ptr<SnpuServer> server;
    ServeResult res;
    {
        Stopwatch sw(r.lib_ns);
        {
            Scope s(probe.spans, "core.soc_build");
            soc = std::make_unique<Soc>(w.params);
        }
        server = std::make_unique<SnpuServer>(*soc, w.cfg);
        Scope s(probe.spans, "serve.window");
        res = server->serve(w.tenants);
    }
    r.ok = res.ok();
    r.error = res.error();
    r.sim_cycles = static_cast<double>(res.makespan);
    Digest d;
    digestServe(res, d);
    r.digest = d.addRegistry(*soc).value();
    countServe(w, res, *server, *probe.counts);
    if (probe.traced())
        addSocCounters(*soc, *probe.counts);
    {
        Stopwatch sw(r.lib_ns);
        server.reset();
        soc.reset();
    }
    return r;
}

/** profiledServiceCycles() under a serve.calibrate span. */
double
calibrate(Probe &probe, const SocParams &params, const NpuTask &task)
{
    Scope s(probe.spans, "serve.calibrate");
    return SnpuServer::profiledServiceCycles(params, task);
}

// --- serve_warm -------------------------------------------------------

constexpr std::uint32_t warm_cores = 2;
constexpr std::uint32_t warm_requests = 8;
constexpr std::uint32_t warm_scale = 256;
constexpr std::uint32_t warm_windows_per_config = 8;
/**
 * Hit-ratio floor after warm-up. On the commit that defined the
 * benchmark every timed window replayed entirely from the cache.
 */
constexpr double warm_hit_floor = 0.99;

struct TenantPlan
{
    ModelId model;
    World world;
};

const std::vector<TenantPlan> warm_plans = {
    {ModelId::googlenet, World::secure}, {ModelId::yololite, World::secure},
    {ModelId::mobilenet, World::normal}, {ModelId::resnet, World::normal},
    {ModelId::googlenet, World::normal}, {ModelId::yololite, World::normal},
    {ModelId::mobilenet, World::normal}, {ModelId::resnet, World::normal},
};

struct WarmConfig
{
    std::string backend;
    SchedPolicy policy;
    double load;
};

class ServeWarm : public Workload
{
  public:
    ServeWarm(std::uint64_t seed, bool smoke)
        : seed(seed), per_config(smoke ? 1 : warm_windows_per_config)
    {
        for (const char *backend : {"guarder", "crypto"})
            for (SchedPolicy policy :
                 {SchedPolicy::id_based, SchedPolicy::flush_fine})
                for (double load : {0.5, 1.3})
                    configs.push_back({backend, policy, load});
        if (smoke)
            configs.resize(2);
    }

    void
    setup(Probe &probe) override
    {
        TimingCache::global().clear();

        // Unloaded service cycles per backend x tenant plan.
        std::map<std::tuple<std::string, ModelId, World>, double> service;
        for (const WarmConfig &c : configs) {
            for (const TenantPlan &p : warm_plans) {
                const auto key = std::make_tuple(c.backend, p.model,
                                                 worldFor(p, c.backend));
                if (service.count(key))
                    continue;
                service[key] =
                    calibrate(probe, paramsFor(c.backend),
                              task(p, c.backend));
            }
        }

        windows.clear();
        for (std::uint32_t k = 0; k < per_config; ++k) {
            for (std::size_t ci = 0; ci < configs.size(); ++ci) {
                const WarmConfig &c = configs[ci];
                Window w;
                w.params = paramsFor(c.backend);
                double max_service = 0;
                for (std::size_t t = 0; t < warm_plans.size(); ++t) {
                    const TenantPlan &p = warm_plans[t];
                    const double svc = service.at(std::make_tuple(
                        c.backend, p.model, worldFor(p, c.backend)));
                    max_service = std::max(max_service, svc);
                    TenantSpec spec;
                    spec.name = std::string(modelName(p.model)) + "_" +
                                std::to_string(t);
                    spec.task = task(p, c.backend);
                    Rng rng(mixSeed(seed, k * configs.size() + ci, t));
                    spec.arrivals = poissonArrivals(
                        rng,
                        meanGapForLoad(
                            c.load,
                            static_cast<std::uint32_t>(warm_plans.size()),
                            warm_cores, svc),
                        warm_requests);
                    w.tenants.push_back(std::move(spec));
                }
                w.cfg.policy = c.policy;
                w.cfg.num_cores = warm_cores;
                w.cfg.latency_hist_max = 32.0 * max_service;
                w.cfg.latency_hist_buckets = 2048;
                w.cfg.attestation = c.backend == "guarder";
                windows.push_back(std::move(w));
            }
        }

        // Warm-up: every window once, filling the timing cache. These
        // live runs are the parity reference for the warm replays.
        Probe quiet{nullptr, probe.counts};
        live.clear();
        for (std::size_t i = 0; i < windows.size(); ++i)
            live[i] = serveWindow(windows[i], quiet).digest;
    }

    std::size_t size() const override { return windows.size(); }

    OpResult
    run(std::size_t index, Probe &probe) override
    {
        return serveWindow(windows[index], probe);
    }

    std::map<std::size_t, std::uint64_t>
    setupDigests() const override
    {
        return live;
    }

    std::string
    guard(const Phase &phase) const override
    {
        const double ratio = phase.cache.hitRatio();
        if (ratio < warm_hit_floor)
            return "serve_warm timing-cache hit ratio " +
                   std::to_string(ratio) + " below floor " +
                   std::to_string(warm_hit_floor);
        return {};
    }

  private:
    static World
    worldFor(const TenantPlan &p, const std::string &backend)
    {
        // Secure tenants need the NPU Monitor, which only sNPU has.
        return backend == "guarder" ? p.world : World::normal;
    }

    static NpuTask
    task(const TenantPlan &p, const std::string &backend)
    {
        NpuTask t = NpuTask::fromModel(p.model, worldFor(p, backend));
        t.model = t.model.scaled(warm_scale);
        return t;
    }

    std::uint64_t seed;
    std::uint32_t per_config;
    std::vector<WarmConfig> configs;
    std::vector<Window> windows;
    std::map<std::size_t, std::uint64_t> live;
};

// --- llm_faults -------------------------------------------------------

constexpr std::uint32_t llm_cores = 2;
constexpr double llm_load = 0.6;
constexpr std::uint32_t llm_windows = 16;

struct LlmTenant
{
    DecoderId decoder;
    World world;
    std::uint32_t requests;
    std::uint32_t tokens;
    /** The tenant joins every @c every-th window. */
    std::uint32_t every;
};

/**
 * tinygpt decodes 20 tokens from its 32-token prompt, spanning two
 * 16-token KV pages. gpt2s keeps GPT-2-small widths (hidden 768, FFN
 * 3072) at one block: a live gpt2s request streams 7 MB of weights per
 * step, so it joins one window in four, and its 2 tokens start at a
 * 47-token prompt to cross a page boundary.
 */
const std::vector<LlmTenant> llm_plans = {
    {DecoderId::tinygpt, World::secure, 2, 20, 1},
    {DecoderId::tinygpt, World::normal, 1, 20, 1},
    {DecoderId::gpt2s, World::secure, 1, 2, 4},
};

DecoderSpec
llmDecoder(DecoderId id)
{
    DecoderSpec d = makeDecoder(id);
    if (id == DecoderId::gpt2s) {
        d.blocks = 1;
        d.prompt = 47;
    }
    return d;
}

FaultPlan
llmFaultPlan(std::uint64_t seed, bool forced_dma_error)
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
    // Per-probe odds: a window makes ~20k DMA transfers, one monitor
    // allocation per token and a few attestation handshakes.
    arm(FaultSite::dma_transfer, 5.0e-6);
    arm(FaultSite::monitor_alloc, 2.0e-3);
    arm(FaultSite::attest, 0.05);
    arm(FaultSite::task_hang, 1.0e-4);
    // Plus one DMA error at a seeded transfer, so every pass over the
    // windows exercises the retry path.
    if (forced_dma_error) {
        FaultSpec once;
        once.site = FaultSite::dma_transfer;
        once.trigger = FaultTrigger::nth;
        once.nth = 1000 + Rng(seed).below(10000);
        plan.faults.push_back(once);
    }
    return plan;
}

class LlmFaults : public Workload
{
  public:
    LlmFaults(std::uint64_t seed, bool smoke)
        : seed(seed), n_windows(smoke ? 1 : llm_windows)
    {}

    void
    setup(Probe &probe) override
    {
        TimingCache::global().clear();
        const SocParams params = makeSystem(SystemKind::snpu);

        // Unloaded request service: prefill plus the decode steps.
        std::vector<double> service;
        double max_service = 0;
        for (const LlmTenant &p : llm_plans) {
            const DecoderSpec d = llmDecoder(p.decoder);
            NpuTask prefill;
            prefill.name = decoderName(p.decoder);
            prefill.model = makePrefill(d);
            NpuTask step = prefill;
            step.model = makeDecodeStep(d, 0);
            const double svc = calibrate(probe, params, prefill) +
                               p.tokens * calibrate(probe, params, step);
            service.push_back(svc);
            max_service = std::max(max_service, svc);
        }

        windows.clear();
        for (std::uint32_t k = 0; k < n_windows; ++k) {
            Window w;
            w.params = params;
            for (std::size_t t = 0; t < llm_plans.size(); ++t) {
                const LlmTenant &p = llm_plans[t];
                if (k % p.every != 0)
                    continue;
                TenantSpec spec;
                spec.name = std::string(decoderName(p.decoder)) + "_" +
                            std::to_string(t);
                spec.task.name = spec.name;
                spec.task.world = p.world;
                spec.task.priority = 1;
                spec.queue_capacity = p.requests;
                spec.decode_tokens = p.tokens;
                spec.decoder = llmDecoder(p.decoder);
                Rng rng(mixSeed(seed, k, t));
                spec.arrivals = poissonArrivals(
                    rng,
                    meanGapForLoad(
                        llm_load,
                        static_cast<std::uint32_t>(llm_plans.size()),
                        llm_cores, service[t]),
                    p.requests);
                w.tenants.push_back(std::move(spec));
            }
            ServerConfig &cfg = w.cfg;
            cfg.policy = SchedPolicy::id_based;
            cfg.num_cores = llm_cores;
            cfg.latency_hist_max = 64.0 * max_service;
            cfg.token_hist_max = 4.0e6;
            cfg.attestation = true;
            cfg.fault_injection = true;
            cfg.fault_plan =
                llmFaultPlan(mixSeed(seed, k, 0xfa17), k % 2 == 0);
            cfg.default_deadline = static_cast<Tick>(24.0 * max_service);
            cfg.max_retries = 2;
            cfg.retry_backoff = 500;
            cfg.quarantine_threshold = 3;
            cfg.quarantine_cooldown = static_cast<Tick>(max_service);
            cfg.record_requests = true;
            windows.push_back(std::move(w));
        }

        // Warm-up: the first window (live; nothing is cached).
        Probe quiet{nullptr, probe.counts};
        serveWindow(windows.front(), quiet);
    }

    std::size_t size() const override { return windows.size(); }

    OpResult
    run(std::size_t index, Probe &probe) override
    {
        return serveWindow(windows[index], probe);
    }

    std::string
    guard(const Phase &phase) const override
    {
        const CacheCounts &cc = phase.cache;
        if (cc.hits != 0 || cc.misses != 0 || cc.bypasses == 0)
            return "llm_faults memoized ops must all bypass (hits=" +
                   std::to_string(cc.hits) +
                   " misses=" + std::to_string(cc.misses) +
                   " bypasses=" + std::to_string(cc.bypasses) + ")";
        if (phase.counts.get("sim.faults_fired") < 1)
            return "llm_faults fired no fault";
        if (phase.counts.get("serve.retry_successes") < 1)
            return "llm_faults had no successful retry";
        return {};
    }

  private:
    std::uint64_t seed;
    std::uint32_t n_windows;
    std::vector<Window> windows;
};

} // namespace

std::unique_ptr<Workload>
makeServeWarm(std::uint64_t seed, bool smoke)
{
    return std::make_unique<ServeWarm>(seed, smoke);
}

std::unique_ptr<Workload>
makeLlmFaults(std::uint64_t seed, bool smoke)
{
    return std::make_unique<LlmFaults>(seed, smoke);
}

} // namespace snpubench
