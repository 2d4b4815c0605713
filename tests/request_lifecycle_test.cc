/**
 * @file
 * The request lifecycle of the N-core scheduler: every request moves
 * through the documented RequestState edges, and each transition
 * calls its RequestLifecycle method once, with the charges and span
 * ticks landing where the transition says. A recording lifecycle
 * stands in for the serving engine.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/systems.hh"
#include "serve/core_scheduler.hh"
#include "sim/fault_injector.hh"
#include "workload/model_zoo.hh"

namespace snpu
{
namespace
{

/** One lifecycle call as the lifecycle saw it. */
struct Call
{
    std::string what;
    RequestState state;
    std::int32_t core;
    std::uint32_t token;
    std::uint32_t attempts;
    std::uint32_t retries;
    Tick dispatched;
    Tick exec_start;
    Tick now;
};

/**
 * Records every call per (stream, instance). Rejects stream 0's
 * instance 2, fails the first dispatch of stream 0's instance 1
 * (retrying it once), and charges @c dispatch_cycles per dispatch
 * and @c token_cycles per decode step.
 */
class Recorder : public RequestLifecycle
{
  public:
    static constexpr Tick dispatch_cycles = 300;
    static constexpr Tick token_cycles = 40;
    static constexpr Tick retry_delay = 1000;

    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<Call>>
        calls;

    bool
    admit(const Request &req) override
    {
        log("admit", req, req.arrival);
        return !(req.stream == 0 && req.instance == 2);
    }

    Charge
    dispatch(const Request &req, Tick now) override
    {
        log("dispatch", req, now);
        Charge charge;
        charge.cycles = dispatch_cycles;
        if (req.stream == 0 && req.instance == 1 && req.attempts == 0)
            charge.status = Status::faultInjected("test: dispatch");
        return charge;
    }

    Charge
    beginToken(const Request &req, Tick now) override
    {
        log("token", req, now);
        Charge charge;
        charge.cycles = token_cycles;
        return charge;
    }

    void
    retire(const Request &req, Tick now) override
    {
        log("retire", req, now);
    }

    void
    complete(const Request &req, Tick now) override
    {
        log("complete", req, now);
    }

    Tick
    fail(const Request &req, Tick now, const Status &) override
    {
        log("fail", req, now);
        return req.attempts <= 1 ? now + retry_delay : sched_no_retry;
    }

    const std::vector<Call> &
    of(std::uint32_t stream, std::uint32_t instance)
    {
        return calls[{stream, instance}];
    }

  private:
    void
    log(const char *what, const Request &req, Tick now)
    {
        calls[{req.stream, req.instance}].push_back(
            Call{what, req.state, req.core, req.token, req.attempts,
                 req.retries, req.dispatched, req.exec_start, now});
    }
};

/** Stream 0: three classic requests. Stream 1: one generating
 *  request with @p tokens decode steps. */
std::vector<ExecStream>
mixedStreams(std::uint32_t tokens)
{
    std::vector<ExecStream> streams(2);
    streams[0].task = NpuTask::fromModel(ModelId::mobilenet);
    streams[0].task.model = streams[0].task.model.scaled(64);
    streams[0].arrivals = {0, 1000, 2000};

    const DecoderSpec d = makeDecoder(DecoderId::tinygpt);
    DecodeSchedule plan = makeDecodeSchedule(d, tokens);
    streams[1].task.model = makePrefill(d);
    streams[1].arrivals = {500};
    streams[1].decode_tokens = tokens;
    streams[1].decode_shapes = std::move(plan.shapes);
    streams[1].decode_step_shape = std::move(plan.step_shape);
    return streams;
}

std::vector<std::string>
names(const std::vector<Call> &calls)
{
    std::vector<std::string> out;
    for (const Call &c : calls)
        out.push_back(c.what);
    return out;
}

using Names = std::vector<std::string>;

TEST(RequestLifecycle, EachRequestWalksTheDocumentedEdges)
{
    auto soc = buildSoc(SystemKind::snpu);
    NCoreScheduler sched(*soc, SchedPolicy::id_based, 2);
    Recorder rec;
    const NSchedResult res = sched.run(mixedStreams(3), &rec);
    ASSERT_TRUE(res.ok()) << res.error();

    // A rejected request sees admission only.
    EXPECT_EQ(names(rec.of(0, 2)), Names{"admit"});
    EXPECT_EQ(rec.of(0, 2)[0].state, RequestState::arriving);

    // A plain request: admit -> dispatch -> complete.
    const std::vector<Call> &plain = rec.of(0, 0);
    EXPECT_EQ(names(plain), (Names{"admit", "dispatch", "complete"}));
    EXPECT_EQ(plain[1].state, RequestState::running);
    EXPECT_GE(plain[1].core, 0);
    EXPECT_EQ(plain[2].state, RequestState::done);

    // A failed dispatch scrubs and re-queues; the retry completes.
    const std::vector<Call> &retried = rec.of(0, 1);
    EXPECT_EQ(names(retried), (Names{"admit", "dispatch", "fail",
                                     "dispatch", "complete"}));
    EXPECT_EQ(retried[2].attempts, 1u);
    EXPECT_EQ(retried[2].core, -1); // unbound before the decision
    EXPECT_EQ(retried[3].retries, 1u);
    EXPECT_EQ(retried[4].retries, 1u);

    // A generating request retires the prefill, then begins and
    // retires each decode step in order, and completes once.
    const std::vector<Call> &gen = rec.of(1, 0);
    EXPECT_EQ(names(gen),
              (Names{"admit", "dispatch", "retire", "token", "retire",
                     "token", "retire", "token", "retire",
                     "complete"}));
    std::uint32_t expect_token = 0;
    for (const Call &c : gen) {
        if (c.what == "retire") {
            EXPECT_EQ(c.token, expect_token);
        } else if (c.what == "token") {
            EXPECT_EQ(c.token, ++expect_token);
            EXPECT_EQ(c.state, RequestState::running);
        }
    }

    const StreamOutcome &s0 = res.streams[0];
    EXPECT_EQ(s0.completed, 2u);
    EXPECT_EQ(s0.rejected, 1u);
    EXPECT_EQ(s0.retries, 1u);
    EXPECT_EQ(s0.failed, 0u);
    EXPECT_EQ(res.streams[1].completed, 1u);
    EXPECT_EQ(res.streams[1].tokens, 3u);
}

/**
 * Transition charges land on the tile's clock and in the schedule's
 * overhead totals, including the charge of a dispatch that then
 * failed; the record's span ticks bracket the dispatch charge.
 */
TEST(RequestLifecycle, ChargesAndSpanTicksComeFromTheTransitions)
{
    auto soc = buildSoc(SystemKind::snpu);
    NCoreScheduler sched(*soc, SchedPolicy::id_based, 2);
    Recorder rec;
    const NSchedResult res = sched.run(mixedStreams(3), &rec);
    ASSERT_TRUE(res.ok()) << res.error();

    // Four dispatches (one failed) and three decode steps.
    EXPECT_EQ(res.dispatch_overhead, 4 * Recorder::dispatch_cycles);
    EXPECT_EQ(res.token_alloc_overhead, 3 * Recorder::token_cycles);
    // The failed attempt was bound to a tile: it was scrubbed.
    EXPECT_GT(res.recovery_overhead, 0u);

    // Stream 0's span sums cover exactly its completed instances,
    // which arrived at 0 and 1000, from their last dispatch.
    Tick queue = 0;
    Tick exec = 0;
    const Tick arrival[] = {0, 1000};
    for (std::uint32_t i = 0; i < 2; ++i) {
        const Call &done = rec.of(0, i).back();
        ASSERT_EQ(done.what, "complete");
        EXPECT_EQ(done.exec_start - done.dispatched,
                  Recorder::dispatch_cycles);
        queue += done.dispatched - arrival[i];
        exec += done.now - done.exec_start;
    }
    EXPECT_EQ(res.streams[0].queue_cycles, queue);
    EXPECT_EQ(res.streams[0].exec_cycles, exec);
}

/**
 * Without a lifecycle the first execution failure aborts the whole
 * schedule; with one, the lifecycle's fail transition decides, and
 * the default fails the request terminally while the rest complete.
 */
TEST(RequestLifecycle, LifecycleDecidesWhatAnExecutionFailureDoes)
{
    FaultSpec spec;
    spec.site = FaultSite::dma_transfer;
    spec.trigger = FaultTrigger::nth;
    spec.nth = 1;
    FaultPlan plan;
    plan.faults = {spec};
    std::vector<ExecStream> streams = mixedStreams(2);

    {
        auto soc = buildSoc(SystemKind::snpu);
        FaultInjector inj(plan);
        soc->armFaults(&inj);
        NCoreScheduler sched(*soc, SchedPolicy::id_based, 2);
        const NSchedResult res = sched.run(streams);
        soc->armFaults(nullptr);
        EXPECT_FALSE(res.ok());
        EXPECT_EQ(res.code(), StatusCode::fault_injected);
    }
    {
        auto soc = buildSoc(SystemKind::snpu);
        FaultInjector inj(plan);
        soc->armFaults(&inj);
        NCoreScheduler sched(*soc, SchedPolicy::id_based, 2);
        RequestLifecycle terminal;
        const NSchedResult res = sched.run(streams, &terminal);
        soc->armFaults(nullptr);
        ASSERT_TRUE(res.ok()) << res.error();
        std::uint32_t completed = 0;
        std::uint32_t failed = 0;
        for (const StreamOutcome &out : res.streams) {
            completed += out.completed;
            failed += out.failed;
            EXPECT_EQ(out.retries, 0u);
        }
        EXPECT_EQ(failed, 1u);
        EXPECT_EQ(completed, 3u);
    }
}

} // namespace
} // namespace snpu
