#include "serve/core_scheduler.hh"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/timing_cache.hh"
#include "sim/hashing.hh"
#include "sim/logging.hh"
#include "workload/compiler.hh"
#include "workload/layer_timing.hh"

namespace snpu
{

namespace
{

constexpr Tick no_tick = std::numeric_limits<Tick>::max();

/**
 * The immutable output of compiling one stream: per-layer segments
 * plus the arena window they were laid out in. Shared across
 * scheduler runs through the process-wide segment cache — sweeps
 * compile each (model, capacity, arena) combination once instead of
 * once per sweep point, and the shared programs carry their memoized
 * timing fingerprints with them.
 */
struct SegmentSet
{
    std::vector<NpuProgram> segments;
    std::uint32_t live_rows = 0;
    Addr va_base = 0;
    Addr va_bytes = 0;
};

/** Compiled stream: shared segments plus per-run scheduling state. */
struct CompiledStream
{
    std::shared_ptr<const SegmentSet> code;
    World world = World::normal;
    int priority = 0;
    std::int32_t pinned_core = -1;
    Tick deadline = 0;
    Tick queue_deadline = 0;
    /** Compiled decode-step shapes (generating streams). */
    std::vector<std::shared_ptr<const SegmentSet>> decode_code;
    std::vector<std::uint32_t> step_shape;
    std::uint32_t decode_tokens = 0;
    /** Scratchpad rows any phase of this stream may touch. */
    std::uint32_t live_rows = 0;
    /** Protection window covering prefill + every decode shape. */
    Addr win_base = 0;
    Addr win_bytes = 0;
};

std::shared_ptr<const SegmentSet>
compileSegments(Soc &soc, const NpuTask &task, std::uint32_t rows,
                std::uint32_t row_base, Addr &cursor)
{
    NpuCore &core = soc.npu().core(0);
    CompilerParams cp;
    cp.dim = soc.params().systolic_dim;
    cp.spad_rows = rows;
    cp.spad_row_base = row_base;
    cp.acc_rows = core.coreParams().acc_rows;

    // Compilation is a pure function of (model, compiler params,
    // arena cursor): reuse earlier output whenever all three match.
    // Unlike the timing cache this needs no bypass conditions —
    // identical inputs produce identical programs no matter what the
    // timing side of the run looks like.
    std::uint64_t key = fnv_offset;
    key = hashMix(key, modelFingerprint(task.model));
    key = hashMix(key, std::uint64_t(task.world));
    key = hashMix(key, std::uint64_t(cp.dim));
    key = hashMix(key, std::uint64_t(cp.spad_rows));
    key = hashMix(key, std::uint64_t(cp.spad_row_base));
    key = hashMix(key, std::uint64_t(cp.acc_rows));
    key = hashMix(key, cursor);

    static std::mutex mu;
    static std::unordered_map<std::uint64_t,
                              std::shared_ptr<const SegmentSet>>
        cache;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache.find(key);
        if (it != cache.end()) {
            cursor = it->second->va_base + it->second->va_bytes;
            return it->second;
        }
    }

    auto out = std::make_shared<SegmentSet>();
    TilingCompiler compiler(cp);
    out->va_base = cursor;
    for (const LayerSpec &layer : task.model.layers) {
        ModelSpec single;
        single.name = layer.name;
        single.layers = {layer};
        Addr footprint = 0;
        out->segments.push_back(
            compiler.compileModel(single, cursor, &footprint));
        cursor += (footprint + 0xfffff) & ~Addr(0xfffff);
        out->live_rows = std::max(out->live_rows,
                                  out->segments.back().spad_rows_used);
    }
    out->va_bytes = cursor - out->va_base;

    // Fingerprint eagerly while this thread still owns the programs:
    // once published, the memoized fingerprint fields must not be
    // written concurrently by racing readers.
    for (const NpuProgram &prog : out->segments)
        programFingerprint(prog);

    std::lock_guard<std::mutex> lock(mu);
    // First insertion wins; a racing thread compiled the same thing.
    auto [it, inserted] = cache.emplace(key, std::move(out));
    return it->second;
}

/** Watchdog grace for hung requests on deadline-free streams. */
constexpr Tick hang_grace = 50000;

constexpr std::size_t no_request = ~std::size_t{0};

/** The lifecycle edges RequestState documents. */
bool
legalEdge(RequestState from, RequestState to)
{
    using S = RequestState;
    switch (from) {
      case S::arriving:
        return to == S::queued || to == S::rejected;
      case S::queued:
        return to == S::running || to == S::queued || to == S::failed;
      case S::running:
        return to == S::done || to == S::queued || to == S::failed;
      default:
        return false;
    }
}

/** One tile's scheduling state. */
struct Tile
{
    Tick clock = 0;
    /** False once nothing can ever run here again. */
    bool active = true;
    /** Stream whose context the tile holds; -1 = none. */
    int running = -1;
    std::uint32_t segs_since_switch = 0;
    /** Requests bound to this tile, in dispatch order. */
    std::vector<std::size_t> inprog;
    bool executed = false;
};

/**
 * One scheduling window: the request records, the tiles, and one
 * member function per request transition. Each transition moves the
 * record, updates the stream outcome and the trace, then calls the
 * lifecycle.
 */
class Schedule
{
  public:
    Schedule(Soc &soc, SchedPolicy policy, std::uint32_t num_cores,
             std::uint32_t coarse_interval,
             const std::vector<CompiledStream> &compiled,
             const std::vector<ExecStream> &streams,
             RequestLifecycle *lifecycle, Tracer &tracer,
             const std::string &trace_name, NSchedResult &result)
        : soc(soc), policy(policy), coarse_interval(coarse_interval),
          compiled(compiled), lc(lifecycle ? *lifecycle : bare),
          recovers(lifecycle), tracer(tracer), trace_name(trace_name),
          result(result), memo(soc),
          save_base(soc.mem().map().npuArena(World::normal).base +
                    (16u << 20)),
          tiles(num_cores), latency_sum(streams.size(), 0)
    {
        // All request instances, in global admission (arrival) order.
        for (std::uint32_t s = 0; s < streams.size(); ++s) {
            for (std::uint32_t i = 0; i < streams[s].arrivals.size();
                 ++i) {
                Request req;
                req.stream = s;
                req.instance = i;
                req.arrival = req.ready = streams[s].arrivals[i];
                requests.push_back(req);
            }
        }
        std::stable_sort(requests.begin(), requests.end(),
                         [](const Request &a, const Request &b) {
                             return a.arrival < b.arrival;
                         });
        open = requests.size();
    }

    /** Drive every request to a terminal state; a non-ok status
     *  aborts the schedule. */
    Status
    run()
    {
        while (open > 0) {
            // The tile furthest behind in simulated time acts next,
            // so the shared memory system advances roughly in time
            // order.
            std::uint32_t core = 0;
            Tick best = no_tick;
            for (std::uint32_t c = 0; c < tiles.size(); ++c) {
                if (tiles[c].active && tiles[c].clock < best) {
                    best = tiles[c].clock;
                    core = c;
                }
            }
            if (best == no_tick)
                return Status::internal(
                    "all tiles idle with requests outstanding");

            admitUpTo(tiles[core].clock);
            const std::size_t idx = pick(core);
            if (idx == no_request) {
                idle(core);
                continue;
            }
            Request &req = requests[idx];
            if (expired(core, idx))
                continue;
            if (req.core < 0 && !dispatch(core, idx))
                continue;
            if (Status st = contextSwitch(core, req.stream); !st)
                return st;
            if (req.token > 0 && req.next_seg == 0 &&
                !beginToken(core, idx))
                continue;

            Status abort = execute(core, idx);
            if (!abort.isOk())
                return abort;
        }
        return Status::ok();
    }

    /** Fill the whole-schedule figures once run() succeeded. */
    void
    summarize()
    {
        std::uint32_t used_cores = 0;
        for (const Tile &tile : tiles)
            used_cores += tile.executed ? 1 : 0;
        for (std::size_t s = 0; s < result.streams.size(); ++s) {
            StreamOutcome &out = result.streams[s];
            out.mean_latency =
                out.completed ? static_cast<double>(latency_sum[s]) /
                                    out.completed
                              : 0.0;
        }
        const double peak =
            static_cast<double>(soc.params().systolic_dim) *
            static_cast<double>(soc.params().systolic_dim);
        result.cycles = result.makespan;
        result.utilization =
            result.makespan && used_cores
                ? static_cast<double>(useful_macs) /
                      (peak * static_cast<double>(used_cores) *
                       static_cast<double>(result.makespan))
                : 0.0;
    }

  private:
    void
    moveTo(Request &req, RequestState to)
    {
        if (!legalEdge(req.state, to)) {
            panic("request ", req.stream, "#", req.instance,
                  ": illegal state transition ", int(req.state),
                  " -> ", int(to));
        }
        req.state = to;
    }

    /** Whether @p core may serve stream @p s. */
    bool
    serves(std::uint32_t core, std::uint32_t s) const
    {
        const std::int32_t pin = compiled[s].pinned_core;
        return pin < 0 || static_cast<std::uint32_t>(pin) == core;
    }

    /** arriving -> queued | rejected, for every arrival up to @p now. */
    void
    admitUpTo(Tick now)
    {
        for (; admit_idx < requests.size() &&
               requests[admit_idx].arrival <= now;
             ++admit_idx) {
            Request &req = requests[admit_idx];
            if (lc.admit(req)) {
                moveTo(req, RequestState::queued);
                waiting.push_back(admit_idx);
            } else {
                moveTo(req, RequestState::rejected);
                ++result.streams[req.stream].rejected;
                --open;
            }
        }
    }

    /**
     * The watchdogs. A request found past its deadline at a
     * scheduling point fails instead of running; so does a request
     * still queued past its queue deadline, counted from when it last
     * became dispatchable (so retries restart the clock), instead of
     * waiting unboundedly behind a quarantined or hung tenant.
     */
    bool
    expired(std::uint32_t core, std::size_t idx)
    {
        const Request &req = requests[idx];
        const CompiledStream &st = compiled[req.stream];
        const Tick now = tiles[core].clock;
        if (st.deadline > 0 && now > req.arrival + st.deadline) {
            fail(core, idx,
                 Status::timeout("deadline expired before segment "
                                 "dispatch"));
            return true;
        }
        if (req.core < 0 && st.queue_deadline > 0 &&
            now > req.ready + st.queue_deadline) {
            fail(core, idx,
                 Status::timeout("admission-queue wait exceeded the "
                                 "queue deadline"));
            return true;
        }
        return false;
    }

    /** queued -> running on @p core; false when the dispatch charge
     *  failed the attempt. */
    bool
    dispatch(std::uint32_t core, std::size_t idx)
    {
        Request &req = requests[idx];
        Tile &tile = tiles[core];
        moveTo(req, RequestState::running);
        req.core = static_cast<int>(core);
        waiting.erase(std::find(waiting.begin(), waiting.end(), idx));
        tile.inprog.push_back(idx);
        tracer.emit(tile.clock, TraceCategory::sched, trace_name,
                    "dispatch: stream ", req.stream, " instance ",
                    req.instance, " -> tile ", core);
        req.dispatched = tile.clock;
        Charge charge = lc.dispatch(req, tile.clock);
        tile.clock += charge.cycles;
        result.dispatch_overhead += charge.cycles;
        req.exec_start = tile.clock;
        if (charge.status.isOk())
            return true;
        fail(core, idx, std::move(charge.status));
        return false;
    }

    /** A decode step begins: its KV block is allocated (and
     *  charged) before its first segment. */
    bool
    beginToken(std::uint32_t core, std::size_t idx)
    {
        Request &req = requests[idx];
        Tile &tile = tiles[core];
        Charge charge = lc.beginToken(req, tile.clock);
        tile.clock += charge.cycles;
        result.token_alloc_overhead += charge.cycles;
        if (charge.status.isOk())
            return true;
        fail(core, idx, std::move(charge.status));
        return false;
    }

    /**
     * Run the request's next segment on @p core, then retire the
     * phase if that was its last segment. A failed segment fails the
     * attempt; without a lifecycle it aborts the schedule instead,
     * and the returned status says why.
     */
    Status
    execute(std::uint32_t core, std::size_t idx)
    {
        Request &req = requests[idx];
        Tile &tile = tiles[core];
        const CompiledStream &st = compiled[req.stream];
        const SegmentSet &code =
            req.token == 0
                ? *st.code
                : *st.decode_code[st.step_shape[req.token - 1]];
        ExecOptions eo;
        eo.noc = NocMode::unauthorized;
        ExecResult exec =
            memo.run(core, tile.clock, code.segments[req.next_seg], eo,
                     st.win_base, st.win_bytes + (1u << 20))
                .exec;
        if (!exec.ok()) {
            if (!recovers)
                return exec.status;
            if (exec.status.code() == StatusCode::timeout) {
                // Hung task: the core never retires the program. The
                // watchdog discovers it at the deadline (or after a
                // fixed grace period) — wall-clock is lost either way.
                const Tick found = st.deadline > 0
                                       ? req.arrival + st.deadline
                                       : tile.clock + hang_grace;
                tile.clock = std::max(tile.clock, found);
            }
            fail(core, idx, exec.status);
            return Status::ok();
        }
        tile.clock = exec.end;
        tile.executed = true;
        useful_macs += code.segments[req.next_seg].ideal_macs;
        ++tile.segs_since_switch;
        if (++req.next_seg == code.segments.size())
            retirePhase(core, idx);
        return Status::ok();
    }

    /** The prefill or one decode step retired: the request stays
     *  bound to its tile for the next token, competing at token
     *  granularity with every other tenant, or completes. */
    void
    retirePhase(std::uint32_t core, std::size_t idx)
    {
        Request &req = requests[idx];
        const CompiledStream &st = compiled[req.stream];
        if (st.decode_tokens > 0) {
            lc.retire(req, tiles[core].clock);
            if (req.token > 0)
                ++result.streams[req.stream].tokens;
            if (req.token < st.decode_tokens) {
                ++req.token;
                req.next_seg = 0;
                return;
            }
        }
        complete(core, idx);
    }

    /** running -> done. */
    void
    complete(std::uint32_t core, std::size_t idx)
    {
        Request &req = requests[idx];
        Tile &tile = tiles[core];
        const Tick now = tile.clock;
        moveTo(req, RequestState::done);
        tile.inprog.erase(
            std::find(tile.inprog.begin(), tile.inprog.end(), idx));
        StreamOutcome &out = result.streams[req.stream];
        out.completion = std::max(out.completion, now);
        const Tick latency = now - req.arrival;
        out.worst_latency = std::max(out.worst_latency, latency);
        out.queue_cycles += req.dispatched - req.arrival;
        out.exec_cycles += now - req.exec_start;
        latency_sum[req.stream] += latency;
        ++out.completed;
        result.makespan = std::max(result.makespan, now);
        tracer.emit(now, TraceCategory::sched, trace_name, "stream ",
                    req.stream, " instance ", req.instance,
                    " completed on tile ", core, ", latency ", latency);
        lc.complete(req, now);
        --open;
    }

    /**
     * One attempt failed on @p core: queued | running -> queued
     * (retry) | failed. Scrub the tile (no residue of the faulted
     * context may survive into the next tenant's slot), unbind the
     * request, and let the lifecycle decide on a retry.
     */
    void
    fail(std::uint32_t core, std::size_t idx, Status why)
    {
        Request &req = requests[idx];
        const CompiledStream &st = compiled[req.stream];
        Tile &tile = tiles[core];

        auto wit = std::find(waiting.begin(), waiting.end(), idx);
        if (wit != waiting.end())
            waiting.erase(wit);
        auto iit =
            std::find(tile.inprog.begin(), tile.inprog.end(), idx);
        if (iit != tile.inprog.end())
            tile.inprog.erase(iit);

        if (req.core >= 0) {
            // Post-fault hygiene: zero the rows the faulted context
            // could have touched and tear its protection context down
            // (windows revoked, TLB flushed, region keys retired)
            // before any other tenant reuses the slot. Charged at one
            // cycle per scrubbed wordline.
            const Tick t0 = tile.clock;
            soc.npu().core(core).scratchpad().secureReset(
                0, st.live_rows, true);
            soc.protection(core).endContext(true);
            tile.clock += st.live_rows;
            result.recovery_overhead += tile.clock - t0;
            tile.running = -1;
            tile.segs_since_switch = 0;
        }
        req.core = -1;
        req.next_seg = 0;
        // A retry restarts the whole generation: prefill again, KV
        // blocks for the faulted attempt were revoked by the scrub.
        req.token = 0;
        ++req.attempts;

        StreamOutcome &out = result.streams[req.stream];
        const Tick retry_at = lc.fail(req, tile.clock, why);
        if (retry_at == sched_no_retry) {
            moveTo(req, RequestState::failed);
            ++out.failed;
            if (why.code() == StatusCode::timeout)
                ++out.timeouts;
            --open;
            tracer.emit(tile.clock, TraceCategory::sched, trace_name,
                        "stream ", req.stream, " instance ",
                        req.instance, " failed terminally after ",
                        req.attempts, " attempt(s): ", why.message());
        } else {
            moveTo(req, RequestState::queued);
            ++out.retries;
            ++req.retries;
            req.ready = std::max(tile.clock, retry_at);
            waiting.push_back(idx);
            tracer.emit(tile.clock, TraceCategory::sched, trace_name,
                        "stream ", req.stream, " instance ",
                        req.instance, " attempt ", req.attempts,
                        " failed (", why.message(), "), retry at ",
                        req.ready);
        }
    }

    /**
     * The request @p core runs next, or no_request. Candidates are
     * the tile's in-flight requests plus every ready queued request
     * it may take. The highest stream priority wins; then, for
     * continuous batching, a decode step over a fresh context and
     * the fewest generated tokens (so token progress round-robins
     * across tenants); then requests in flight on this tile, the
     * earliest arrival, and submission order.
     */
    std::size_t
    pick(std::uint32_t core) const
    {
        const Tile &tile = tiles[core];
        std::vector<std::size_t> cands = tile.inprog;
        for (std::size_t w : waiting) {
            if (requests[w].ready <= tile.clock &&
                serves(core, requests[w].stream))
                cands.push_back(w);
        }
        if (cands.empty())
            return no_request;

        // Coarse flushing amortizes switches: stick with the running
        // tenant while it still has runnable work and the
        // amortization window is open.
        if (policy == SchedPolicy::flush_coarse && tile.running >= 0 &&
            tile.segs_since_switch < coarse_interval) {
            std::vector<std::size_t> same;
            for (std::size_t c : cands) {
                if (static_cast<int>(requests[c].stream) ==
                    tile.running)
                    same.push_back(c);
            }
            if (!same.empty())
                cands = std::move(same);
        }

        std::size_t pick = cands.front();
        for (std::size_t c : cands) {
            const Request &a = requests[c];
            const Request &b = requests[pick];
            const int pa = compiled[a.stream].priority;
            const int pb = compiled[b.stream].priority;
            bool better;
            if (pa != pb)
                better = pa > pb;
            else if ((a.token > 0) != (b.token > 0))
                better = a.token > 0;
            else if (a.token > 0 && a.token != b.token)
                better = a.token < b.token;
            else if ((a.core == int(core)) != (b.core == int(core)))
                better = a.core == int(core);
            else
                better = a.arrival < b.arrival;
            if (better)
                pick = c;
        }
        return pick;
    }

    /** Nothing to run: sleep until the next arrival or retry-ready
     *  time this tile could serve, or retire the tile for good. */
    void
    idle(std::uint32_t core)
    {
        Tile &tile = tiles[core];
        Tick wake = no_tick;
        for (std::size_t i = admit_idx; i < requests.size(); ++i) {
            if (serves(core, requests[i].stream)) {
                wake = requests[i].arrival;
                break;
            }
        }
        for (std::size_t w : waiting) {
            if (serves(core, requests[w].stream))
                wake = std::min(wake, requests[w].ready);
        }
        if (wake == no_tick)
            tile.active = false;
        else
            tile.clock = std::max(tile.clock, wake);
    }

    /** Switch @p core to stream @p to: save the displaced context
     *  under the flush policies, then provision @p to's window. A
     *  provisioning failure aborts the schedule. */
    Status
    contextSwitch(std::uint32_t core, std::uint32_t to)
    {
        Tile &tile = tiles[core];
        if (tile.running == static_cast<int>(to))
            return Status::ok();
        if (tile.running >= 0 && (policy == SchedPolicy::flush_fine ||
                                  policy == SchedPolicy::flush_coarse)) {
            const CompiledStream &prev =
                compiled[static_cast<std::size_t>(tile.running)];
            constexpr Tick resume_penalty = 200;
            const Addr save_area =
                save_base + static_cast<Addr>(core) * (1u << 20);
            const Tick t0 = tile.clock;
            // The displaced context streams back from DRAM on the
            // same path, and the switch waits for it: save and
            // restore both sit on the preempting request's critical
            // path.
            tile.clock = memo.contextFlush(core, tile.clock,
                                           prev.live_rows, save_area);
            tile.clock += resume_penalty;
            result.flush_overhead += tile.clock - t0;
        }
        tile.running = static_cast<int>(to);
        tile.segs_since_switch = 0;
        const CompiledStream &next = compiled[to];
        soc.npu().setCoreWorld(core, next.world, true);
        if (Status st = soc.protection(core).beginContext(
                ProtectionContext{next.win_base, next.win_base,
                                  next.win_bytes + (1u << 20),
                                  next.world},
                true);
            !st)
            return st;
        tracer.emit(tile.clock, TraceCategory::sched, trace_name,
                    "tile ", core, " now running stream ", to);
        return Status::ok();
    }

    Soc &soc;
    const SchedPolicy policy;
    const std::uint32_t coarse_interval;
    const std::vector<CompiledStream> &compiled;
    RequestLifecycle bare;
    RequestLifecycle &lc;
    /** A lifecycle decides retries; without one, the first execution
     *  failure aborts the schedule. */
    const bool recovers;
    Tracer &tracer;
    const std::string &trace_name;
    NSchedResult &result;
    // Every segment execution and context flush goes through the
    // memoizing front end: identical (segment, tile state) pairs
    // replay a recorded execution instead of re-simulating it.
    MemoizedExec memo;
    const Addr save_base;

    std::vector<Tile> tiles;
    std::vector<Request> requests;
    std::size_t admit_idx = 0;        //!< next request to admit
    std::vector<std::size_t> waiting; //!< queued, in queue order
    std::size_t open = 0;             //!< not yet terminal
    std::uint64_t useful_macs = 0;
    std::vector<std::uint64_t> latency_sum;
};

} // namespace

const char *
schedPolicyName(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::flush_fine:
        return "flush-fine";
      case SchedPolicy::flush_coarse:
        return "flush-coarse";
      case SchedPolicy::partition:
        return "partition";
      case SchedPolicy::id_based:
        return "id-based";
    }
    return "?";
}

NCoreScheduler::NCoreScheduler(Soc &soc, SchedPolicy policy,
                               std::uint32_t num_cores,
                               std::uint32_t coarse_interval)
    : soc(soc), policy(policy), num_cores(num_cores),
      coarse_interval(coarse_interval)
{
    if (coarse_interval == 0)
        fatal("coarse interval must be positive");
    if (num_cores == 0)
        fatal("need at least one core");
    if (num_cores > soc.npu().tiles())
        fatal("more scheduler cores than NPU tiles");
}

NSchedResult
NCoreScheduler::run(const std::vector<ExecStream> &streams,
                    RequestLifecycle *lifecycle)
{
    NSchedResult result;
    result.streams.resize(streams.size());
    if (streams.empty()) {
        result.status = Status::invalidArgument("no streams");
        return result;
    }

    // Pick up whatever sink the SoC currently carries; the tracer
    // stays a single disarmed branch per decision otherwise.
    if (soc.traceSink()) {
        trace_name = "sched";
        tracer.attach(soc.traceSink());
    } else {
        tracer.detach();
    }

    const std::uint32_t full_rows =
        soc.npu().core(0).scratchpad().rows();
    const auto nstreams = static_cast<std::uint32_t>(streams.size());

    // Capacity per stream under the policy: a static partition
    // hands every stream an equal 1/K slice; everything else sees
    // the full scratchpad.
    const AddrRange &arena = soc.mem().map().npuArena(World::normal);
    Addr cursor = arena.base + (32u << 20);
    std::vector<CompiledStream> compiled;
    compiled.reserve(streams.size());
    for (std::uint32_t s = 0; s < nstreams; ++s) {
        std::uint32_t rows = full_rows;
        std::uint32_t base = 0;
        if (policy == SchedPolicy::partition) {
            const std::uint32_t slice = full_rows / nstreams;
            if (slice == 0) {
                result.status = Status::resourceExhausted(
                    "partition slice smaller than one row");
                return result;
            }
            base = s * slice;
            rows = s + 1 == nstreams ? full_rows - base : slice;
        }
        CompiledStream cs;
        cs.code = compileSegments(soc, streams[s].task, rows, base,
                                  cursor);
        cs.world = streams[s].task.world;
        cs.priority = streams[s].task.priority;
        cs.pinned_core = streams[s].pinned_core;
        cs.deadline = streams[s].deadline;
        cs.queue_deadline = streams[s].queue_deadline;
        cs.live_rows = cs.code->live_rows;
        cs.win_base = cs.code->va_base;
        cs.win_bytes = cs.code->va_bytes;
        if (streams[s].decode_tokens > 0) {
            if (streams[s].decode_step_shape.size() !=
                streams[s].decode_tokens) {
                result.status = Status::invalidArgument(
                    "decode_step_shape must map every token");
                return result;
            }
            NpuTask step_task = streams[s].task;
            for (const ModelSpec &shape : streams[s].decode_shapes) {
                step_task.model = shape;
                cs.decode_code.push_back(compileSegments(
                    soc, step_task, rows, base, cursor));
            }
            for (std::uint32_t shape :
                 streams[s].decode_step_shape) {
                if (shape >= cs.decode_code.size()) {
                    result.status = Status::invalidArgument(
                        "decode_step_shape indexes a missing shape");
                    return result;
                }
            }
            cs.step_shape = streams[s].decode_step_shape;
            cs.decode_tokens = streams[s].decode_tokens;
            // The protection window and scrub extent must cover
            // every phase: the context persists across decode steps.
            Addr win_end = cs.win_base + cs.win_bytes;
            for (const auto &dc : cs.decode_code) {
                cs.win_base = std::min(cs.win_base, dc->va_base);
                win_end =
                    std::max(win_end, dc->va_base + dc->va_bytes);
                cs.live_rows = std::max(cs.live_rows, dc->live_rows);
            }
            cs.win_bytes = win_end - cs.win_base;
        }
        compiled.push_back(std::move(cs));
        if (streams[s].pinned_core >= 0 &&
            static_cast<std::uint32_t>(streams[s].pinned_core) >=
                num_cores) {
            result.status = Status::invalidArgument(
                "stream pinned to a core outside the schedule");
            return result;
        }
    }

    Schedule schedule(soc, policy, num_cores, coarse_interval,
                      compiled, streams, lifecycle, tracer, trace_name,
                      result);
    result.status = schedule.run();
    if (result.ok())
        schedule.summarize();
    return result;
}

} // namespace snpu
