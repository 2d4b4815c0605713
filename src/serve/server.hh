/**
 * @file
 * SnpuServer — the multi-tenant serving engine. It ties the pieces
 * of the serving stack together behind one call:
 *
 *  - open-loop arrival streams per tenant (serve/arrivals.hh);
 *  - bounded per-tenant admission queues; secure-world tenants are
 *    additionally wired through the NPU Monitor's secure task queue,
 *    so a full monitor queue drops requests just like a full tenant
 *    queue;
 *  - the generalized N-core scheduler (serve/core_scheduler.hh)
 *    under any of the four Table I isolation policies;
 *  - a modeled NPU-Monitor charge on every secure dispatch (code
 *    verifier measurement + model HMAC/decrypt + context-setter
 *    programming), paid on the dispatching tile's clock. Normal-
 *    world tenants bypass the monitor and pay nothing;
 *  - per-tenant stats on the SoC's stats::Group (serve_<tenant>_*),
 *    with tail latency from stats::Histogram::percentile().
 *
 * The monitor charge is a cost model, not a functional launch: the
 * scheduler provisions guarder windows itself at context-switch
 * time, so a functional launchNext() here would clobber tiles that
 * are mid-stream. The *queue* wiring is functional (real submit /
 * retire against SecureTaskQueue); the *cycles* are derived from the
 * verifier's actual inputs (program length, ciphertext size).
 */

#ifndef SNPU_SERVE_SERVER_HH
#define SNPU_SERVE_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/soc.hh"
#include "core/task.hh"
#include "serve/core_scheduler.hh"
#include "serve/serve_stats.hh"
#include "sim/fault_injector.hh"
#include "sim/trace.hh"
#include "tee/monitor/trusted_allocator.hh"
#include "workload/model_zoo.hh"

namespace snpu
{

/** One tenant of the serving engine. */
struct TenantSpec
{
    std::string name;
    /** The model + world + priority this tenant runs. */
    NpuTask task;
    /** Arrival tick of each request (see serve/arrivals.hh). */
    std::vector<Tick> arrivals;
    /** Max requests admitted but not yet completed. */
    std::uint32_t queue_capacity = 8;
    /**
     * Per-request deadline in cycles after arrival; 0 inherits
     * ServerConfig::default_deadline (and 0 there disables).
     */
    Tick deadline = 0;
    /**
     * Admission-queue-wait deadline in cycles after the request
     * became dispatchable; 0 inherits ServerConfig::queue_deadline
     * (and 0 there disables). Bounds only the undispatched wait, so
     * requests stuck behind a quarantined or wedged tenant time out
     * instead of waiting unboundedly.
     */
    Tick queue_deadline = 0;

    /**
     * Generated tokens per request. 0 keeps the classic
     * whole-inference tenant. When > 0, @p decoder describes the
     * transformer (task.model is replaced by its prefill phase) and
     * each request runs prefill + decode_tokens decode steps under
     * continuous batching, with KV blocks allocated per token
     * through the serving KV pool.
     */
    std::uint32_t decode_tokens = 0;
    DecoderSpec decoder{};
};

/**
 * Terminal outcome of one request, recorded when
 * ServerConfig::record_requests is on. The fleet controller replays
 * these against eviction cutoffs to decide which completions are
 * causally valid and which requests migrate.
 */
struct RequestOutcome
{
    Tick arrival = 0;
    /** Completion / terminal-failure / rejection tick. */
    Tick finished = 0;
    /** StatusCode::ok means the request completed. */
    StatusCode final = StatusCode::internal;
    /** True when the request never got past admission. */
    bool rejected = false;
    /** Prefill-retirement tick (generating tenants; 0 = none). */
    Tick prefill_done = 0;
    /** Retirement tick of each decode step (generating tenants). */
    std::vector<Tick> token_ticks;
    std::uint32_t retries = 0;
};

/** Per-tenant serving outcome, extracted from the tenant's stats. */
struct TenantReport
{
    std::string name;
    std::uint32_t completed = 0;
    std::uint32_t rejected = 0;
    /** Completions per million cycles of the serving window. */
    double throughput = 0.0;
    Tick p50 = 0;
    Tick p95 = 0;
    Tick p99 = 0;
    Tick worst_latency = 0;
    double mean_latency = 0.0;
    /** Modeled NPU-Monitor cycles charged to this tenant. */
    Tick monitor_cycles = 0;
    std::uint32_t peak_queue_depth = 0;
    /** Attestation handshake cycles charged (attestation on). */
    Tick attest_cycles = 0;
    /** Handshake attempts paid (injected timeouts re-run it). */
    std::uint32_t attest_handshakes = 0;
    /** Requests denied at admission by a failed attestation. */
    std::uint32_t attest_denied = 0;
    /** True once this tenant holds a verified session key. */
    bool attested = false;
    /** Requests failed terminally (after any retries). */
    std::uint32_t failed = 0;
    /** Retry attempts granted by the recovery policy. */
    std::uint32_t retries = 0;
    /** Terminal failures from expired deadlines or hangs. */
    std::uint32_t timeouts = 0;
    /** Failed attempts observed (pre-retry). */
    std::uint32_t faults_observed = 0;
    /** True when the circuit breaker is open (or probing) at window
     *  end. */
    bool quarantined = false;
    /** Times the breaker tripped open (>1 means a probe re-tripped). */
    std::uint32_t breaker_trips = 0;
    /** Half-open trial requests admitted after a cool-down. */
    std::uint32_t breaker_probes = 0;
    /** Trials that succeeded and closed the breaker again. */
    std::uint32_t breaker_readmissions = 0;

    /** Completed request spans (admission through completion). */
    std::uint32_t spans = 0;
    /** Mean admission->dispatch wait across completed spans. */
    double mean_queue_cycles = 0.0;
    /** Mean exec-start->completion cycles across completed spans. */
    double mean_exec_cycles = 0.0;
    /**
     * Latency samples beyond the histogram range. When nonzero the
     * percentile tails (p50/p95/p99) clamp at the histogram's upper
     * bound instead of reporting the true tail.
     */
    std::uint64_t latency_overflow = 0;
    /** latency_overflow over the total sample count. */
    double latency_overflow_frac = 0.0;
    /**
     * True when enough samples overflowed that the reported p99 is
     * the clamped histogram bound, not a real quantile.
     */
    bool p99_clipped = false;

    /** Decode tokens retired (generating tenants only). */
    std::uint64_t tokens = 0;
    /** Time to first token (arrival through prefill completion). */
    Tick ttft_p50 = 0;
    Tick ttft_p95 = 0;
    Tick ttft_p99 = 0;
    /** Inter-token latency across this tenant's decode steps. */
    Tick token_p50 = 0;
    Tick token_p95 = 0;
    Tick token_p99 = 0;
    /** Per-token KV allocation cycles charged to this tenant. */
    Tick kv_alloc_cycles = 0;

    /** Per-request outcomes (ServerConfig::record_requests only). */
    std::vector<RequestOutcome> requests;
};

/** Whole-window serving outcome. */
struct ServeResult : ExecOutcome
{
    /** Last completion tick (also mirrored into cycles). */
    Tick makespan = 0;
    double utilization = 0.0;
    Tick flush_overhead = 0;
    /** Total modeled NPU-Monitor cycles across secure tenants. */
    Tick monitor_overhead = 0;
    /** Cycles spent on post-fault hygiene (scrub + window revoke). */
    Tick recovery_overhead = 0;
    /** Per-token KV allocation cycles across all decode steps. */
    Tick token_alloc_overhead = 0;
    /** Attestation handshake cycles across all secure tenants. */
    Tick attest_overhead = 0;
    std::vector<TenantReport> tenants;
};

/** Serving-engine configuration. */
struct ServerConfig
{
    SchedPolicy policy = SchedPolicy::id_based;
    std::uint32_t num_cores = 1;
    /** Segments between switches under flush_coarse. */
    std::uint32_t coarse_interval = 5;
    /** Latency histogram range/resolution (cycles). */
    double latency_hist_max = 4.0e6;
    std::size_t latency_hist_buckets = 256;

    /**
     * Arm a FaultInjector with this plan for the serving window.
     * With injection off (default) no injector exists and every
     * hook site is a null-pointer check — measurably zero overhead.
     */
    bool fault_injection = false;
    FaultPlan fault_plan{};

    /** Deadline for tenants that do not set one; 0 disables. */
    Tick default_deadline = 0;
    /** Queue-wait deadline for tenants without one; 0 disables. */
    Tick queue_deadline = 0;
    /** Retry budget per request for retryable failures. */
    std::uint32_t max_retries = 2;
    /** Base retry backoff; attempt k waits backoff << (k-1). */
    Tick retry_backoff = 500;
    /**
     * Decorrelated-jitter retry backoff: attempt k waits
     * base + rng % (min(cap, 3 * prev) - base) with cap = base << 6,
     * drawn from a server-local Rng seeded with @c jitter_seed so
     * sweeps stay byte-identical at any job count. Off (default) the
     * legacy deterministic base << (k-1) schedule applies.
     */
    bool retry_jitter = false;
    /** Seed for the retry-jitter Rng (ignored without jitter). */
    std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
    /** Consecutive failed attempts (across a tenant's requests)
     *  that trip its CircuitBreaker, quarantining it. 0 disables. */
    std::uint32_t quarantine_threshold = 0;
    /** Cool-down before an open breaker admits one half-open trial
     *  request; 0 keeps the legacy quarantine-forever behaviour. */
    Tick quarantine_cooldown = 0;
    /** Record per-request outcomes into TenantReport::requests. */
    bool record_requests = false;

    /**
     * Measured-boot attestation at admission. Each secure tenant
     * challenges the NPU Monitor with a fresh nonce before its
     * first request runs: the monitor quotes the boot-chain
     * measurement register extended with the tenant's model image,
     * the tenant verifies the quote against the golden measurement,
     * and on success both sides hold a session key. The handshake
     * is charged in simulated cycles (SHA-256 timing model) on the
     * tenant's first secure dispatch; a diverged measurement (a
     * tampered boot stage or model) denies every request of the
     * tenant at admission with StatusCode::verification_failed; an
     * injected FaultSite::attest timeout is retryable through the
     * normal recovery machinery and re-pays the handshake.
     */
    bool attestation = false;
    /** Seed deriving each tenant's deterministic challenge nonce
     *  (mixed with the tenant slot), so sweeps stay byte-identical
     *  at any job count. */
    std::uint64_t attest_seed = 0xa77e57a7ULL;

    /**
     * Serve per-token KV blocks from the caching pool (the fast
     * path). Off, every KV allocation pays the first-fit walk — the
     * baseline bench/token_throughput compares against.
     */
    bool kv_pool_caching = true;
    /** Inter-token latency histogram range (cycles). */
    double token_hist_max = 2.0e5;
};

/** The serving engine. */
class SnpuServer
{
  public:
    SnpuServer(Soc &soc, ServerConfig cfg = {});

    /**
     * Serve every tenant's request stream to completion or
     * rejection. One serving window per server instance: the
     * per-tenant stats register on the SoC's group under names
     * derived from the tenant names, so reuse would double-register.
     */
    ServeResult serve(const std::vector<TenantSpec> &tenants);

    /** The per-tenant stat families (valid after serve()). */
    const ServeStats &tenantStats() const { return stats_; }

    /**
     * The armed fault injector (nullptr unless
     * ServerConfig::fault_injection; valid after serve() for
     * inspecting the fired-fault log).
     */
    const FaultInjector *faultInjector() const
    {
        return injector.get();
    }

    /**
     * The serving KV pool (valid after serve(); nullptr when no
     * tenant generates). Under the NPU Monitor this is the monitor's
     * own kvPool(); otherwise a server-local pool over a slice of
     * the normal arena, registered as "serve_kv_pool".
     */
    const CachingTrustedAllocator *kvPool() const { return kv_pool; }

    /**
     * Ideal service cycles of one request of @p task on a
     * @p dim x @p dim systolic array — a compute-bound lower bound.
     */
    static double idealServiceCycles(const NpuTask &task,
                                     std::uint32_t dim);

    /**
     * Measured service cycles of one request of @p task, run alone
     * on a throwaway probe SoC built from @p params. This is the
     * load-calibration unit for meanGapForLoad(): unlike the ideal
     * bound it includes the memory system, so offered load = 1.0
     * genuinely saturates the tiles.
     */
    static double profiledServiceCycles(const SocParams &params,
                                        const NpuTask &task);

  private:
    /** One serving window's request transitions (server.cc). */
    class Window;

    Soc &soc;
    ServerConfig cfg;
    ServeStats stats_;
    std::unique_ptr<FaultInjector> injector;
    /** Server-local KV pool for systems without the NPU Monitor.
     *  Members (not serve() locals) so exported stats stay live. */
    std::unique_ptr<TrustedAllocator> local_kv_arena;
    std::unique_ptr<CachingTrustedAllocator> local_kv_pool;
    CachingTrustedAllocator *kv_pool = nullptr;
    bool served = false;
    /**
     * Serve-path span tracing: when the SoC carries a trace sink,
     * every request's admission, dispatch, exec start, retries and
     * completion emit as "serve" under TraceCategory::serve. Span
     * summaries in TenantReport exist regardless of tracing.
     */
    Tracer tracer;
    std::string trace_name;
};

} // namespace snpu

#endif // SNPU_SERVE_SERVER_HH
