/**
 * @file
 * N-core, N-stream NPU scheduler: any number of request streams —
 * each an NpuTask plus an explicit list of arrival ticks — are served
 * across an arbitrary set of tiles under one of the four isolation
 * policies of Table I. Table I itself is the one-core case: a
 * background stream and a periodic high-priority stream, both pinned
 * to core 0.
 *
 * Scheduling happens at op-kernel (layer-segment) boundaries. What
 * changes across policies is the context-switch cost and the
 * scratchpad capacity each stream compiles against:
 *
 *  - flush_fine:   switch to the highest-priority ready request at
 *                  every segment boundary, paying a scratchpad
 *                  context save/restore per tenant switch;
 *  - flush_coarse: amortize flushes by sticking with the running
 *                  tenant for N segments while work remains;
 *  - partition:    no switch cost, but each stream compiles against
 *                  a static 1/K slice of the scratchpad;
 *  - id_based:     sNPU — no switch cost, full scratchpad.
 *
 * Requests are non-migratory: once dispatched to a tile they stay
 * there, but every tile picks new work from the shared backlog, so
 * load balances at request granularity. Tiles interleave in
 * earliest-clock-first order so DRAM/L2 contention between them
 * emerges from the shared memory model. Interleaving at segment
 * granularity is approximate — within one segment a tile sees the
 * memory queues as its rivals left them — but the earliest-clock-
 * first order bounds the skew to one segment.
 *
 * Each request is one Request record moving through a typed
 * lifecycle (RequestState); every transition is one function in the
 * scheduler, which updates the record, the stream outcome and the
 * trace, then calls the matching RequestLifecycle method. The
 * serving engine (serve/server.hh) layers admission control,
 * NPU-Monitor costs and recovery on top through that interface.
 */

#ifndef SNPU_SERVE_CORE_SCHEDULER_HH
#define SNPU_SERVE_CORE_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/soc.hh"
#include "core/task.hh"
#include "sim/trace.hh"

namespace snpu
{

/** Isolation policy applied at scheduling time. */
enum class SchedPolicy : std::uint8_t
{
    flush_fine,      //!< flush + switch at every segment boundary
    flush_coarse,    //!< switch (and flush) only every N segments
    partition,       //!< static scratchpad split, no flushes
    id_based,        //!< sNPU: no flushes, full capacity
};

const char *schedPolicyName(SchedPolicy policy);

/** One request stream: a task plus the ticks requests arrive at. */
struct ExecStream
{
    NpuTask task;
    /** Arrival tick of each request instance (ascending). */
    std::vector<Tick> arrivals;
    /** Tile the stream is pinned to; -1 = any tile. */
    std::int32_t pinned_core = -1;
    /**
     * Per-request deadline, in cycles after arrival; 0 disables. A
     * request found past its deadline at a scheduling point fails
     * with StatusCode::timeout, and a hung request is discovered by
     * the watchdog at arrival + deadline.
     */
    Tick deadline = 0;
    /**
     * Admission-queue-wait deadline, in cycles after the request
     * became dispatchable (arrival, or retry-ready tick); 0 disables.
     * Unlike @c deadline — which charges the whole lifetime — this
     * bounds only the undispatched wait, so requests stuck behind a
     * quarantined or wedged tenant fail with StatusCode::timeout
     * instead of waiting unboundedly for a tile.
     */
    Tick queue_deadline = 0;

    /**
     * Generated tokens per request (continuous batching). 0 keeps the
     * classic whole-inference stream. When > 0, @p task.model is the
     * prefill phase; after it retires, each token runs one decode
     * step and the request re-enters the backlog, so decode steps
     * from many tenants interleave at token granularity.
     */
    std::uint32_t decode_tokens = 0;
    /** Unique decode-step models (one per padded KV context). */
    std::vector<ModelSpec> decode_shapes;
    /** Shape index token t executes; size == decode_tokens. */
    std::vector<std::uint32_t> decode_step_shape;
};

/**
 * Where a request is in its lifecycle. The edges are
 *
 *   arriving -> queued | rejected              (admit)
 *   queued   -> running                        (dispatch)
 *   running  -> running                        (next token)
 *   running  -> done                           (complete)
 *   queued | running -> queued | failed        (fail: retry or not)
 *
 * and the scheduler refuses any other.
 */
enum class RequestState : std::uint8_t
{
    arriving,  //!< not yet seen by admission
    queued,    //!< admitted (or backing off a retry), no tile yet
    running,   //!< bound to a tile, executing its current phase
    done,      //!< completed
    failed,    //!< failed terminally, after any retries
    rejected,  //!< refused at admission
};

/**
 * One request instance: the single record of its scheduling state
 * and span ticks. The scheduler owns it and moves it through its
 * states; a RequestLifecycle sees it read-only at every transition.
 */
struct Request
{
    std::uint32_t stream = 0;
    std::uint32_t instance = 0;
    Tick arrival = 0;
    RequestState state = RequestState::arriving;
    /** Tile the request is bound to; -1 while queued. */
    std::int32_t core = -1;
    /** Earliest dispatchable tick: the arrival, then retry-ready. */
    Tick ready = 0;
    /** Failed attempts so far. */
    std::uint32_t attempts = 0;
    /** Retries granted so far. */
    std::uint32_t retries = 0;
    /** Generation phase: 0 = prefill, t >= 1 = decode step t. */
    std::uint32_t token = 0;
    /** Next segment of the current phase. */
    std::size_t next_seg = 0;
    /** Latest attempt's dispatch tick, before any dispatch charge. */
    Tick dispatched = 0;
    /** Latest attempt's execution start, after the dispatch charge. */
    Tick exec_start = 0;
};

/** Cycles a transition charges to the tile, and whether the request
 *  may go on; a non-ok status fails the attempt. */
struct Charge
{
    Status status = Status::ok();
    Tick cycles = 0;
};

/** RequestLifecycle::fail's answer for a terminal failure. */
constexpr Tick sched_no_retry = ~Tick{0};

/**
 * The serving layer's half of each request transition, one method
 * per transition. The serving engine uses it to bound admission
 * queues, route secure requests through the NPU Monitor, allocate
 * KV blocks per token and decide retries. The defaults admit
 * everything, charge nothing and fail terminally.
 */
class RequestLifecycle
{
  public:
    virtual ~RequestLifecycle() = default;

    /** At the request's arrival: false rejects it. */
    virtual bool admit(const Request &) { return true; }
    /**
     * Bound to a tile at @p now (req.core is set). The charge (e.g.
     * monitor verification and context programming) is paid on the
     * tile's clock before the request runs.
     */
    virtual Charge dispatch(const Request &, Tick) { return {}; }
    /** Before decode step req.token runs: the per-token KV charge,
     *  accounted in token_alloc_overhead. */
    virtual Charge beginToken(const Request &, Tick) { return {}; }
    /** A generation phase retired: req.token 0 is the prefill (time
     *  to first token), t >= 1 is decode step t. */
    virtual void retire(const Request &, Tick) {}
    /** The request completed at @p now. */
    virtual void complete(const Request &, Tick) {}
    /**
     * An attempt failed (req.attempts counts it; the tile is already
     * scrubbed). Return the earliest retry tick, or sched_no_retry
     * to fail the request terminally.
     */
    virtual Tick fail(const Request &, Tick, const Status &)
    {
        return sched_no_retry;
    }
};

/** Per-stream schedule outcome. */
struct StreamOutcome
{
    /** Completion tick of the stream's last finished instance. */
    Tick completion = 0;
    Tick worst_latency = 0;
    double mean_latency = 0.0;
    std::uint32_t completed = 0;
    std::uint32_t rejected = 0;
    /** Requests that failed terminally (after any retries). */
    std::uint32_t failed = 0;
    /** Retry attempts granted by the lifecycle's fail transition. */
    std::uint32_t retries = 0;
    /** Terminal failures whose Status was StatusCode::timeout. */
    std::uint32_t timeouts = 0;
    /** Decode steps retired (generating streams only). */
    std::uint64_t tokens = 0;
    /** Span sums over completed requests: arrival to last dispatch,
     *  and last execution start to completion. */
    Tick queue_cycles = 0;
    Tick exec_cycles = 0;
};

/** Whole-schedule outcome across all streams and tiles. */
struct NSchedResult : ExecOutcome
{
    /** Last completion tick (also mirrored into cycles). */
    Tick makespan = 0;
    /** Useful MACs over peak across the tiles that executed. */
    double utilization = 0.0;
    /** Cycles spent on context save/restore. */
    Tick flush_overhead = 0;
    /** Cycles charged at dispatch (monitor path). */
    Tick dispatch_overhead = 0;
    /** Cycles spent on post-fault hygiene (scrub + window revoke). */
    Tick recovery_overhead = 0;
    /** Cycles charged at token begin (per-token KV allocation on
     *  the monitor path). */
    Tick token_alloc_overhead = 0;
    std::vector<StreamOutcome> streams;
};

/** The generalized scheduler. */
class NCoreScheduler
{
  public:
    NCoreScheduler(Soc &soc, SchedPolicy policy,
                   std::uint32_t num_cores = 1,
                   std::uint32_t coarse_interval = 5);

    /**
     * Serve every stream to completion (or rejection), calling
     * @p lifecycle at every request transition. Without a lifecycle
     * every request is admitted and the first execution failure
     * aborts the whole run; with one, the lifecycle decides retries.
     * When the SoC has a trace sink attached, scheduling decisions
     * (dispatch, context switch, fail/retry, completion) emit as
     * "sched" under TraceCategory::sched for the duration of the run.
     */
    NSchedResult run(const std::vector<ExecStream> &streams,
                     RequestLifecycle *lifecycle = nullptr);

  private:
    Soc &soc;
    SchedPolicy policy;
    std::uint32_t num_cores;
    std::uint32_t coarse_interval;
    Tracer tracer;
    std::string trace_name;
};

} // namespace snpu

#endif // SNPU_SERVE_CORE_SCHEDULER_HH
