#include "serve/server.hh"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/task_runner.hh"
#include "core/timing_cache.hh"
#include "serve/circuit_breaker.hh"
#include "sim/hashing.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "tee/attestation.hh"
#include "tee/monitor/npu_monitor.hh"
#include "tee/secure_boot.hh"
#include "workload/layer_timing.hh"

namespace snpu
{

namespace
{

/**
 * Modeled NPU-Monitor launch cost for one secure dispatch: the
 * trampoline round trip, one measurement pass over the program, the
 * HMAC check + decryption pass over the ciphertext, and the context
 * setter programming guarder windows and core ID state.
 */
Tick
monitorLaunchCost(const SecureTask &task)
{
    constexpr Tick trampoline_cycles = 100;
    constexpr Tick context_setter_cycles = 250;
    const Tick measure_cycles =
        static_cast<Tick>(task.program->code.size()) * 2;
    const Tick crypto_cycles = static_cast<Tick>(task.modelBytes()) / 4;
    return trampoline_cycles + measure_cycles + crypto_cycles +
           context_setter_cycles;
}

/** A secure tenant's submission template and its attested digest. */
struct SecureTemplate
{
    SecureTask task;
    /** SHA-256 of task.encrypted_model: the model image attestation
     *  names, hashed once when the template is built. */
    Digest model_digest{};
};

/**
 * The validated SecureTask template of secure tenant slot @p slot:
 * the program the verifier would measure and a ciphertext sized like
 * the tenant's weights. Each admitted secure request submits a copy
 * into the monitor's queue; the copy shares the template's program
 * and ciphertext handles, so only its id and state are its own.
 * Construction (compile, measure, encrypt) is a pure function of
 * (model, tenant slot, SoC configuration) —
 * the monitor's sealed key is a per-config constant — so sweeps
 * share one template across points through a process-wide cache.
 */
std::shared_ptr<const SecureTemplate>
secureTemplate(Soc &soc, const NpuTask &task, std::uint32_t slot)
{
    static std::mutex mu;
    static std::unordered_map<std::uint64_t,
                              std::shared_ptr<const SecureTemplate>>
        cache;
    std::uint64_t key = fnv_offset;
    key = hashMix(key, socConfigFingerprint(soc.params()));
    key = hashMix(key, modelFingerprint(task.model));
    key = hashMix(key, std::uint64_t(slot));
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }

    auto tpl = std::make_shared<SecureTemplate>();
    SecureTask &secure = tpl->task;
    secure.program =
        std::make_shared<const NpuProgram>(TaskRunner(soc).compile(task));
    secure.expected_measurement = CodeVerifier::measure(*secure.program);
    secure.topology = NocTopology{1, 1};
    secure.proposed_cores = {0};

    std::vector<std::uint8_t> weights(std::min<std::uint64_t>(
        task.model.weightBytes(), 64u << 10));
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = static_cast<std::uint8_t>(i * 131 + slot);
    AesBlock iv{};
    iv[0] = static_cast<std::uint8_t>(slot + 1);
    Digest mac{};
    secure.encrypted_model = std::make_shared<const std::vector<std::uint8_t>>(
        soc.monitor().verifier().encryptModel(weights, iv, mac));
    secure.model_mac = mac;
    secure.model_iv = iv;
    tpl->model_digest = Sha256::hash(*secure.encrypted_model);

    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = cache.emplace(key, std::move(tpl));
    return it->second;
}

/**
 * Transient by construction: an injected transfer error, a
 * corrupted-output retry, or a momentarily full allocator. Denials,
 * failed verification and expired deadlines are terminal — retrying
 * cannot change the verdict.
 */
bool
retryable(StatusCode c)
{
    return c == StatusCode::fault_injected ||
           c == StatusCode::degraded ||
           c == StatusCode::resource_exhausted;
}

} // namespace

/**
 * One serving window, as the scheduler's RequestLifecycle: one record
 * per tenant and per request, and one method per request transition.
 * Each transition updates the records, the tenant's stats and the
 * serve trace together.
 */
class SnpuServer::Window : public RequestLifecycle
{
  public:
    Window(SnpuServer &srv, const std::vector<TenantSpec> &specs,
           const std::vector<ExecStream> &streams);

    bool admit(const Request &req) override;
    Charge dispatch(const Request &req, Tick now) override;
    Charge beginToken(const Request &req, Tick now) override;
    void retire(const Request &req, Tick now) override;
    void complete(const Request &req, Tick now) override;
    Tick fail(const Request &req, Tick now, const Status &why) override;

    /** Fill the per-tenant reports of a finished schedule. */
    void report(const NSchedResult &nres, ServeResult &result);

  private:
    /**
     * Measured-boot attestation at admission. The quote exchange is
     * functional — real HMAC over the monitor's real measurement
     * register, verified against the golden measurement recomputed
     * tenant-side — and its outcome is fixed before serving starts:
     * a platform's integrity does not change mid-window. What stays
     * on the serving timeline is the cost (the handshake's SHA
     * cycles, charged at the tenant's first secure dispatch) and the
     * failure modes (denial at admission; injected timeouts through
     * FaultSite::attest at dispatch).
     */
    enum class Attest : std::uint8_t
    {
        off,          //!< normal world or attestation disabled
        pending,      //!< quote verified; handshake not yet charged
        established,  //!< session key held, handshake paid
        denied,       //!< quote rejected; admission refuses
    };

    /** One request's serving resources and recorded outcome. */
    struct ServeRequest
    {
        /** Id in the monitor's secure task queue; 0 = not queued. */
        std::uint64_t monitor_task = 0;
        /** KV blocks held: the prefill block plus one per token.
         *  Frees happen at monitor-side retirement, off the tile
         *  clock. */
        std::vector<Addr> kv;
        /** Retirement tick of the previous phase. */
        Tick last_token = 0;
        /** Previous decorrelated-jitter delay; 0 = none yet. */
        Tick backoff = 0;
        /** Terminal outcome (ServerConfig::record_requests only). */
        RequestOutcome outcome;
    };

    /** One tenant's admission, breaker and attestation state. */
    struct Tenant
    {
        const TenantSpec *spec = nullptr;
        TenantStats *stats = nullptr;
        std::shared_ptr<const SecureTemplate> tpl;
        std::uint32_t depth = 0;
        std::uint32_t peak = 0;
        /** The quarantine (ServerConfig::quarantine_*). */
        CircuitBreaker breaker{0, 0};
        Attest attest = Attest::off;
        Tick attest_cost = 0;
        std::vector<ServeRequest> requests;
    };

    Tenant &tenant(const Request &req) { return tenants[req.stream]; }
    ServeRequest &record(const Request &req)
    {
        return tenants[req.stream].requests[req.instance];
    }

    void attest(std::uint32_t s);
    bool reject(const Request &req, StatusCode code, const char *why);
    Status checkLaunch(const Request &req, Tick now);
    /** Return the request's KV blocks to the pool. */
    void releaseKv(ServeRequest &r);
    /** Retire the request from the monitor queue as @p state. */
    void retireFromMonitor(ServeRequest &r, SecureTaskState state);
    /** Record the terminal outcome (ServerConfig::record_requests). */
    void finish(const Request &req, Tick now, StatusCode code);
    Tick backoff(ServeRequest &r, std::uint32_t attempts);

    template <typename... Args>
    void trace(Tick now, const Request &req, Args &&...args)
    {
        srv.tracer.emit(now, TraceCategory::serve, srv.trace_name,
                        "request ", tenant(req).spec->name, "#",
                        req.instance, std::forward<Args>(args)...);
    }

    SnpuServer &srv;
    Soc &soc;
    const ServerConfig &cfg;
    std::vector<Tenant> tenants;
    /** Decorrelated-jitter draws: one server-local Rng, so the draw
     *  order is a pure function of the serving window (each sweep
     *  job owns its server, keeping sweeps byte-identical at any job
     *  count). */
    Rng retry_rng;
};

SnpuServer::Window::Window(SnpuServer &srv,
                           const std::vector<TenantSpec> &specs,
                           const std::vector<ExecStream> &streams)
    : srv(srv), soc(srv.soc), cfg(srv.cfg), tenants(specs.size()),
      retry_rng(srv.cfg.jitter_seed)
{
    for (std::uint32_t s = 0; s < tenants.size(); ++s) {
        Tenant &t = tenants[s];
        t.spec = &specs[s];
        t.stats = &srv.stats_.tenant(s);
        t.requests.resize(specs[s].arrivals.size());
        t.breaker = CircuitBreaker(cfg.quarantine_threshold,
                                   cfg.quarantine_cooldown);
        if (specs[s].task.world == World::secure)
            t.tpl = secureTemplate(soc, streams[s].task, s);
    }
    for (std::uint32_t s = 0; s < tenants.size(); ++s) {
        if (cfg.attestation && tenants[s].tpl)
            attest(s);
    }
}

void
SnpuServer::Window::attest(std::uint32_t s)
{
    Tenant &t = tenants[s];
    // The model image the monitor attests is the encrypted bundle it
    // will verify at launch; the tenant knows the same bytes (it
    // provisioned them), so both sides can name the digest
    // independently.
    const Digest &model_digest = t.tpl->model_digest;
    const Digest golden =
        BootChain::extend(soc.goldenBootMeasurement(), model_digest);
    AttestVerifier verifier(soc.monitor().attestKey(), golden);
    const AttestNonce nonce =
        attestNonceFromSeed(hashMix(attest_seed, std::uint64_t(s)));
    const AttestQuote quote =
        soc.monitor().attestQuote(model_digest, nonce);
    const Status st = verifier.verify(quote, nonce);
    t.attest_cost = attestHandshakeCycles(t.tpl->task.modelBytes());
    if (st.isOk()) {
        t.attest = Attest::pending;
    } else {
        t.attest = Attest::denied;
        srv.tracer.emit(0, TraceCategory::serve, srv.trace_name,
                        "tenant ", t.spec->name,
                        " attestation denied: ", st.message());
    }
}

bool
SnpuServer::Window::reject(const Request &req, StatusCode code,
                           const char *why)
{
    ++tenant(req).stats->rejected;
    finish(req, req.arrival, code);
    trace(req.arrival, req, " rejected at admission: ", why);
    return false;
}

bool
SnpuServer::Window::admit(const Request &req)
{
    Tenant &t = tenant(req);
    t.stats->queue_depth.sample(t.depth);
    if (t.attest == Attest::denied) {
        // The platform failed attestation: every request of the
        // tenant is refused before it can spend NPU, monitor or queue
        // resources. Terminal, not retryable — the measurement cannot
        // improve by asking again.
        if (t.stats->attest_denied)
            ++*t.stats->attest_denied;
        return reject(req, StatusCode::verification_failed,
                      "attestation denied");
    }
    // A cooled open breaker lets this arrival become the half-open
    // trial (decided below, once it clears the capacity checks);
    // otherwise fail fast at admission, spending no NPU or monitor
    // resources on this tenant.
    if (!t.breaker.admits(req.arrival))
        return reject(req, StatusCode::resource_exhausted, "quarantined");
    if (t.depth >= t.spec->queue_capacity)
        return reject(req, StatusCode::resource_exhausted, "queue full");
    if (t.tpl) {
        const std::uint64_t id = soc.monitor().submit(t.tpl->task);
        if (id == 0) // monitor queue overflow
            return reject(req, StatusCode::resource_exhausted,
                          "monitor queue full");
        record(req).monitor_task = id;
    }
    if (t.breaker.startTrial(req.arrival, req.instance)) {
        // Cooled down and admitted: this is the trial request.
        ++t.stats->breaker_probes;
        trace(req.arrival, req, " admitted as half-open breaker trial");
    }
    ++t.depth;
    t.peak = std::max(t.peak, t.depth);
    trace(req.arrival, req, " admitted, queue depth ", t.depth);
    return true;
}

Charge
SnpuServer::Window::dispatch(const Request &req, Tick now)
{
    Tenant &t = tenant(req);
    ServeRequest &r = record(req);
    Charge charge;
    Status kv = Status::ok();
    if (t.spec->decode_tokens > 0 && srv.kv_pool) {
        // Prefill KV: the prompt's K/V rows in one block. A failure
        // fails the attempt once the dispatch charge is paid.
        const Addr bytes = static_cast<Addr>(t.spec->decoder.prompt) *
                           t.spec->decoder.kvBytesPerToken();
        AllocOutcome out = srv.kv_pool->alloc(bytes);
        t.stats->kv_alloc_cycles += static_cast<double>(out.cycles);
        charge.cycles += out.cycles;
        if (out.addr == 0) {
            kv = Status::resourceExhausted(
                "monitor: prefill KV allocation failed");
        } else {
            r.kv.push_back(out.addr);
        }
    }
    if (r.monitor_task == 0) {
        // Normal world: no monitor on the path.
        trace(now, req, " dispatched (no monitor charge)");
    } else {
        SecureTask *task = soc.monitor().queue().find(r.monitor_task);
        if (task != nullptr)
            task->state = SecureTaskState::loaded;
        if (t.attest == Attest::pending) {
            // The tenant's first secure dispatch carries the
            // attestation handshake on the dispatching tile's clock.
            // The state stays pending until the launch check passes:
            // an injected quote timeout there fails the attempt, and
            // the retry re-runs (re-pays) the exchange.
            if (t.stats->attest_cycles)
                *t.stats->attest_cycles +=
                    static_cast<double>(t.attest_cost);
            if (t.stats->attest_handshakes)
                ++*t.stats->attest_handshakes;
            charge.cycles += t.attest_cost;
            trace(now, req, " carries attestation handshake, ",
                  t.attest_cost, " cycles");
        }
        const Tick monitor_cost = monitorLaunchCost(t.tpl->task);
        t.stats->monitor_cycles += static_cast<double>(monitor_cost);
        trace(now, req, " dispatched, monitor charge ", monitor_cost,
              " cycles");
        charge.cycles += monitor_cost;
    }

    const Tick start = now + charge.cycles;
    trace(start, req, " exec start");
    charge.status = kv.isOk() ? checkLaunch(req, start) : kv;
    return charge;
}

/**
 * The checks a real monitor launch makes once the charge is paid:
 * the attestation exchange, then code verification and secure
 * allocation. The serving path models the launch as a cost, so the
 * monitor's own fault sites are probed here.
 */
Status
SnpuServer::Window::checkLaunch(const Request &req, Tick now)
{
    Tenant &t = tenant(req);
    FaultInjector *inj = srv.injector.get();
    if (t.attest == Attest::pending) {
        if (inj && inj->shouldInject(FaultSite::attest, now)) {
            // A lost challenge or quote: retryable (says nothing about
            // platform integrity), and the retry pays the handshake
            // again because the exchange restarts.
            return Status::faultInjected(
                "attestation: quote exchange timed out (injected)");
        }
        t.attest = Attest::established;
        srv.tracer.emit(now, TraceCategory::serve, srv.trace_name,
                        "tenant ", t.spec->name,
                        " attested: session key established");
    }
    if (!inj || !t.tpl)
        return Status::ok();
    if (inj->shouldInject(FaultSite::monitor_verify, now)) {
        return Status::verificationFailed(
            "monitor: code measurement mismatch (injected)");
    }
    if (inj->shouldInject(FaultSite::monitor_alloc, now)) {
        return Status::resourceExhausted(
            "monitor: secure memory exhausted (injected)");
    }
    return Status::ok();
}

Charge
SnpuServer::Window::beginToken(const Request &req, Tick now)
{
    Tenant &t = tenant(req);
    Charge charge;
    // Like the launch check, the monitor's allocator fault site is
    // probed here — per token, where a real per-token allocation
    // would fail.
    FaultInjector *inj = srv.injector.get();
    if (inj && t.tpl && inj->shouldInject(FaultSite::monitor_alloc, now)) {
        charge.status = Status::resourceExhausted(
            "monitor: KV allocation failed (injected)");
        return charge;
    }
    if (!srv.kv_pool)
        return charge;
    AllocOutcome out = srv.kv_pool->alloc(t.spec->decoder.kvBytesPerToken());
    charge.cycles = out.cycles;
    t.stats->kv_alloc_cycles += static_cast<double>(out.cycles);
    if (out.addr == 0) {
        charge.status =
            Status::resourceExhausted("monitor: KV pool exhausted");
        return charge;
    }
    record(req).kv.push_back(out.addr);
    return charge;
}

void
SnpuServer::Window::retire(const Request &req, Tick now)
{
    Tenant &t = tenant(req);
    ServeRequest &r = record(req);
    if (cfg.record_requests) {
        if (req.token == 0)
            r.outcome.prefill_done = now;
        else
            r.outcome.token_ticks.push_back(now);
    }
    if (req.token == 0) {
        t.stats->ttft.sample(static_cast<double>(now - req.arrival));
        trace(now, req, " first token, ttft ", now - req.arrival,
              " cycles");
    } else {
        ++t.stats->tokens;
        t.stats->token_latency.sample(
            static_cast<double>(now - r.last_token));
    }
    r.last_token = now;
}

void
SnpuServer::Window::complete(const Request &req, Tick now)
{
    Tenant &t = tenant(req);
    ServeRequest &r = record(req);
    releaseKv(r);
    ++t.stats->completed;
    t.stats->latency.sample(static_cast<double>(now - req.arrival));
    if (t.depth > 0)
        --t.depth;
    if (t.breaker.succeeded(req.instance)) {
        // The trial succeeded: the breaker closed, re-admitting the
        // tenant.
        ++t.stats->breaker_readmits;
        srv.tracer.emit(now, TraceCategory::serve, srv.trace_name,
                        "tenant ", t.spec->name,
                        " breaker closed: half-open trial succeeded");
    }
    retireFromMonitor(r, SecureTaskState::completed);
    finish(req, now, StatusCode::ok);
    trace(now, req, " completed, latency ", now - req.arrival,
          " cycles, ", req.retries, " retries");
}

Tick
SnpuServer::Window::fail(const Request &req, Tick now, const Status &why)
{
    Tenant &t = tenant(req);
    ServeRequest &r = record(req);
    ++t.stats->faults_observed;
    const bool is_trial = t.breaker.isTrial(req.instance);
    const bool tripped = t.breaker.failed(now, req.instance);
    // A failed attempt abandons its generation: its KV blocks go back
    // to the pool (a retry re-allocates from prefill). Only a breaker
    // still closed after this failure retries it.
    releaseKv(r);
    if (t.breaker.closed() && retryable(why.code()) &&
        req.attempts <= cfg.max_retries) {
        ++t.stats->retries;
        const Tick retry_at = now + backoff(r, req.attempts);
        if (cfg.record_requests) {
            // A retry restarts the generation from prefill.
            r.outcome.prefill_done = 0;
            r.outcome.token_ticks.clear();
        }
        trace(now, req, " attempt ", req.attempts, " failed (",
              why.message(), "), retry at ", retry_at);
        return retry_at;
    }
    // Terminal: release the tenant's slot and monitor entry.
    ++t.stats->failed;
    if (why.code() == StatusCode::timeout)
        ++t.stats->timeouts;
    if (t.depth > 0)
        --t.depth;
    retireFromMonitor(r, SecureTaskState::rejected);
    finish(req, now, why.code());
    if (tripped)
        ++t.stats->quarantines;
    if (is_trial) {
        // The half-open trial failed: a full cool-down again.
        srv.tracer.emit(now, TraceCategory::serve, srv.trace_name,
                        "tenant ", t.spec->name,
                        " breaker re-tripped: half-open trial failed");
    }
    if (srv.kv_pool && t.spec->decode_tokens > 0) {
        // Post-fault scrub hygiene: revoke every idle pooled slab so
        // the faulted context's KV bytes are re-zeroed by the monitor
        // before any reuse.
        srv.kv_pool->flush();
    }
    trace(now, req, " failed terminally after ", req.attempts,
          " attempt(s): ", why.message());
    return sched_no_retry;
}

/**
 * The delay before retry attempt @p attempts + 1. With jitter,
 * decorrelated: base + U[0, min(cap, 3*prev) - base), so colliding
 * retries spread out instead of re-colliding on the deterministic
 * base << (attempts-1) schedule.
 */
Tick
SnpuServer::Window::backoff(ServeRequest &r, std::uint32_t attempts)
{
    if (!cfg.retry_jitter)
        return cfg.retry_backoff << (attempts - 1);
    const Tick base = cfg.retry_backoff ? cfg.retry_backoff : 1;
    const Tick cap = base << 6;
    const Tick prev = r.backoff ? r.backoff : base;
    const Tick hi =
        std::min<Tick>(cap, std::max<Tick>(base + 1, 3 * prev));
    r.backoff =
        base + (hi > base ? retry_rng.next() % (hi - base) : 0);
    return r.backoff;
}

void
SnpuServer::Window::releaseKv(ServeRequest &r)
{
    for (Addr block : r.kv)
        srv.kv_pool->free(block);
    r.kv.clear();
}

void
SnpuServer::Window::retireFromMonitor(ServeRequest &r,
                                      SecureTaskState state)
{
    if (r.monitor_task == 0)
        return;
    SecureTask *task = soc.monitor().queue().find(r.monitor_task);
    if (task != nullptr)
        task->state = state;
    soc.monitor().queue().retire();
}

void
SnpuServer::Window::finish(const Request &req, Tick now, StatusCode code)
{
    if (!cfg.record_requests)
        return;
    RequestOutcome &o = record(req).outcome;
    o.arrival = req.arrival;
    o.finished = now;
    o.final = code;
    o.rejected = req.state == RequestState::arriving;
    o.retries = req.retries;
}

void
SnpuServer::Window::report(const NSchedResult &nres, ServeResult &result)
{
    auto pct = [](const stats::Histogram &h, double q) {
        return static_cast<Tick>(h.percentile(q));
    };
    result.tenants.resize(tenants.size());
    bool any_clipped = false;
    for (std::uint32_t s = 0; s < tenants.size(); ++s) {
        Tenant &t = tenants[s];
        const StreamOutcome &out = nres.streams[s];
        const TenantStats &ts = *t.stats;
        TenantReport &rep = result.tenants[s];
        rep.name = t.spec->name;
        rep.completed = out.completed;
        rep.rejected = out.rejected;
        rep.throughput =
            result.makespan
                ? static_cast<double>(out.completed) * 1.0e6 /
                      static_cast<double>(result.makespan)
                : 0.0;
        rep.p50 = pct(ts.latency, 0.50);
        rep.p95 = pct(ts.latency, 0.95);
        rep.p99 = pct(ts.latency, 0.99);
        rep.worst_latency = out.worst_latency;
        rep.mean_latency = out.mean_latency;
        rep.monitor_cycles =
            static_cast<Tick>(ts.monitor_cycles.value());
        rep.peak_queue_depth = t.peak;
        if (cfg.attestation) {
            auto value = [](const std::unique_ptr<stats::Scalar> &v) {
                return v ? v->value() : 0.0;
            };
            rep.attest_cycles = static_cast<Tick>(value(ts.attest_cycles));
            rep.attest_handshakes = static_cast<std::uint32_t>(
                value(ts.attest_handshakes));
            rep.attest_denied =
                static_cast<std::uint32_t>(value(ts.attest_denied));
            rep.attested = t.attest == Attest::established;
            result.attest_overhead += rep.attest_cycles;
        }
        rep.failed = out.failed;
        rep.retries = out.retries;
        rep.timeouts = out.timeouts;
        rep.faults_observed =
            static_cast<std::uint32_t>(ts.faults_observed.value());
        rep.quarantined = !t.breaker.closed();
        rep.breaker_trips =
            static_cast<std::uint32_t>(ts.quarantines.value());
        rep.breaker_probes =
            static_cast<std::uint32_t>(ts.breaker_probes.value());
        rep.breaker_readmissions =
            static_cast<std::uint32_t>(ts.breaker_readmits.value());
        if (cfg.record_requests) {
            for (ServeRequest &r : t.requests)
                rep.requests.push_back(std::move(r.outcome));
        }
        rep.tokens = out.tokens;
        rep.kv_alloc_cycles =
            static_cast<Tick>(ts.kv_alloc_cycles.value());
        if (t.spec->decode_tokens > 0) {
            rep.ttft_p50 = pct(ts.ttft, 0.50);
            rep.ttft_p95 = pct(ts.ttft, 0.95);
            rep.ttft_p99 = pct(ts.ttft, 0.99);
            rep.token_p50 = pct(ts.token_latency, 0.50);
            rep.token_p95 = pct(ts.token_latency, 0.95);
            rep.token_p99 = pct(ts.token_latency, 0.99);
        }

        // Span summary over completed requests: admission->dispatch
        // wait and exec-start->completion cycles.
        rep.spans = out.completed;
        if (out.completed) {
            rep.mean_queue_cycles =
                static_cast<double>(out.queue_cycles) / out.completed;
            rep.mean_exec_cycles =
                static_cast<double>(out.exec_cycles) / out.completed;
        }

        // Tail-fidelity accounting: percentile() clamps at the
        // histogram bound once samples overflow, so say so instead
        // of reporting a silently saturated p99.
        rep.latency_overflow = ts.latency.overflow();
        rep.latency_overflow_frac =
            ts.latency.count()
                ? static_cast<double>(rep.latency_overflow) /
                      static_cast<double>(ts.latency.count())
                : 0.0;
        rep.p99_clipped = rep.latency_overflow > 0 &&
                          rep.latency_overflow_frac >= 0.01;
        any_clipped |= rep.latency_overflow > 0;
    }
    if (any_clipped) {
        warn("serve: latency samples overflowed the histogram range "
             "(", cfg.latency_hist_max, " cycles); reported tail "
             "percentiles clamp at that bound — raise "
             "ServerConfig::latency_hist_max");
    }
}

SnpuServer::SnpuServer(Soc &soc, ServerConfig cfg)
    : soc(soc), cfg(cfg), stats_(soc.stats())
{}

double
SnpuServer::profiledServiceCycles(const SocParams &params,
                                  const NpuTask &task)
{
    // One request, one tile, id-based (full scratchpad, no switch
    // cost): the same per-layer segment path the serving scheduler
    // executes, so isolation and contention are the only deltas
    // between this baseline and in-situ service time.
    Soc probe(params);
    NCoreScheduler sched(probe, SchedPolicy::id_based, 1);
    ExecStream stream;
    stream.task = task;
    stream.arrivals = {0};
    NSchedResult res = sched.run({stream});
    if (!res.ok())
        fatal("service-time probe failed: ", res.error());
    return static_cast<double>(res.makespan);
}

ServeResult
SnpuServer::serve(const std::vector<TenantSpec> &tenants)
{
    ServeResult result;
    if (tenants.empty()) {
        result.status = Status::invalidArgument("no tenants");
        return result;
    }
    if (served) {
        result.status = Status::invalidArgument(
            "a server instance runs one serving window");
        return result;
    }
    served = true;

    // Pick up whatever sink the SoC carries; disarmed tracing costs
    // one branch per span event.
    if (soc.traceSink()) {
        trace_name = "serve";
        tracer.attach(soc.traceSink());
    } else {
        tracer.detach();
    }

    bool any_secure = false;
    bool any_gen = false;
    for (const TenantSpec &t : tenants) {
        if (t.arrivals.empty()) {
            result.status = Status::invalidArgument(
                "tenant " + t.name + " has no arrivals");
            return result;
        }
        any_secure |= t.task.world == World::secure;
        any_gen |= t.decode_tokens > 0;
    }
    if (any_secure && !soc.hasMonitor()) {
        result.status = Status::invalidArgument(
            "secure tenants require a system with the NPU Monitor");
        return result;
    }

    for (const TenantSpec &t : tenants)
        stats_.add(t.name, cfg.latency_hist_max,
                   cfg.latency_hist_buckets, cfg.token_hist_max,
                   cfg.attestation);

    // The per-token secure-memory path. Under the NPU Monitor the KV
    // pool is the monitor's own (secure arena); otherwise a
    // server-local pool over an unused slice of the normal arena
    // (below the scheduler's save areas at base + 16 MiB).
    if (any_gen) {
        if (soc.hasMonitor()) {
            kv_pool = &soc.monitor().kvPool();
        } else {
            const AddrRange &arena =
                soc.mem().map().npuArena(World::normal);
            local_kv_arena = std::make_unique<TrustedAllocator>(
                AddrRange{arena.base + (8u << 20), 8u << 20});
            local_kv_pool =
                std::make_unique<CachingTrustedAllocator>(
                    *local_kv_arena, soc.stats(), "serve_kv_pool");
            kv_pool = local_kv_pool.get();
        }
        kv_pool->setCaching(cfg.kv_pool_caching);
    }

    std::vector<ExecStream> streams;
    streams.reserve(tenants.size());
    for (const TenantSpec &t : tenants) {
        ExecStream stream;
        stream.task = t.task;
        stream.arrivals = t.arrivals;
        stream.deadline =
            t.deadline ? t.deadline : cfg.default_deadline;
        if (t.decode_tokens > 0) {
            stream.task.model = makePrefill(t.decoder);
            DecodeSchedule plan =
                makeDecodeSchedule(t.decoder, t.decode_tokens);
            stream.decode_shapes = std::move(plan.shapes);
            stream.decode_step_shape = std::move(plan.step_shape);
            stream.decode_tokens = t.decode_tokens;
        }
        streams.push_back(std::move(stream));
    }

    Window window(*this, tenants, streams);

    // Fault injection is opt-in: without it no injector exists and
    // every hook site in the stack stays a null-pointer check.
    if (cfg.fault_injection) {
        injector = std::make_unique<FaultInjector>(cfg.fault_plan);
        soc.armFaults(injector.get());
    }

    NCoreScheduler sched(soc, cfg.policy, cfg.num_cores,
                         cfg.coarse_interval);
    NSchedResult nres = sched.run(streams, &window);

    // Leave the SoC clean: the injector dies with this server.
    if (injector)
        soc.armFaults(nullptr);

    result.status = nres.status;
    if (!nres.ok())
        return result;

    result.makespan = nres.makespan;
    result.cycles = nres.makespan;
    result.utilization = nres.utilization;
    result.flush_overhead = nres.flush_overhead;
    result.monitor_overhead = nres.dispatch_overhead;
    result.recovery_overhead = nres.recovery_overhead;
    result.token_alloc_overhead = nres.token_alloc_overhead;
    window.report(nres, result);
    return result;
}

} // namespace snpu
