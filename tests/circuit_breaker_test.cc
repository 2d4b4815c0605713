/**
 * @file
 * CircuitBreaker on its own: one table of event scripts, each step
 * checking the transition's return value and the state it leaves.
 */

#include <gtest/gtest.h>

#include <vector>

#include "serve/circuit_breaker.hh"

namespace snpu
{
namespace
{

using State = CircuitBreaker::State;

enum class Op
{
    admits,     //!< admits(tick) == expect
    start,      //!< startTrial(tick, id) == expect
    succeed,    //!< succeeded(id) == expect
    fail,       //!< failed(tick, id) == expect
};

struct Step
{
    Op op;
    Tick tick;
    std::uint64_t id;
    bool expect;
    State after;
};

struct Script
{
    const char *name;
    std::uint32_t threshold;
    Tick cooldown;
    std::vector<Step> steps;
};

const std::vector<Script> &
scripts()
{
    constexpr State closed = State::closed;
    constexpr State open = State::open;
    constexpr State half = State::half_open;
    static const std::vector<Script> table = {
        {"trips at the threshold", 3, 100,
         {{Op::fail, 10, 1, false, closed},
          {Op::fail, 20, 2, false, closed},
          {Op::fail, 30, 3, true, open},
          {Op::admits, 129, 0, false, open},
          {Op::admits, 130, 0, true, open}}},
        {"a success resets the failure count", 2, 100,
         {{Op::fail, 10, 1, false, closed},
          {Op::succeed, 20, 2, false, closed},
          {Op::fail, 30, 3, false, closed},
          {Op::fail, 40, 4, true, open}}},
        {"threshold 0 never trips", 0, 100,
         {{Op::fail, 10, 1, false, closed},
          {Op::fail, 20, 2, false, closed},
          {Op::fail, 30, 3, false, closed},
          {Op::admits, 40, 0, true, closed},
          {Op::start, 40, 4, false, closed}}},
        {"cool-down 0 never cools", 1, 0,
         {{Op::fail, 10, 1, true, open},
          {Op::admits, 10, 0, false, open},
          {Op::admits, 1'000'000'000, 0, false, open},
          {Op::start, 1'000'000'000, 2, false, open}}},
        {"a cooled breaker admits exactly one trial", 1, 100,
         {{Op::fail, 10, 1, true, open},
          {Op::start, 109, 2, false, open},
          {Op::start, 110, 2, true, half},
          {Op::admits, 200, 0, false, half},
          {Op::start, 200, 3, false, half}}},
        {"trial success closes the breaker", 1, 100,
         {{Op::fail, 10, 1, true, open},
          {Op::admits, 110, 0, true, open},
          {Op::start, 110, 2, true, half},
          {Op::succeed, 120, 2, true, closed},
          {Op::admits, 121, 0, true, closed},
          {Op::fail, 130, 3, true, open}}},
        {"trial failure starts a full cool-down again", 1, 100,
         {{Op::fail, 10, 1, true, open},
          {Op::start, 110, 2, true, half},
          {Op::fail, 150, 2, true, open},
          {Op::admits, 249, 0, false, open},
          {Op::admits, 250, 0, true, open}}},
        {"non-trial outcomes leave half-open alone", 1, 100,
         {{Op::fail, 10, 1, true, open},
          {Op::start, 110, 2, true, half},
          {Op::fail, 120, 3, false, half},
          {Op::fail, 130, 4, false, half},
          {Op::succeed, 140, 5, false, half},
          {Op::succeed, 150, 2, true, closed}}},
    };
    return table;
}

TEST(CircuitBreaker, ScriptedTransitions)
{
    for (const Script &sc : scripts()) {
        CircuitBreaker b(sc.threshold, sc.cooldown);
        for (std::size_t i = 0; i < sc.steps.size(); ++i) {
            const Step &st = sc.steps[i];
            bool got = false;
            switch (st.op) {
              case Op::admits:
                got = b.admits(st.tick);
                break;
              case Op::start:
                got = b.startTrial(st.tick, st.id);
                break;
              case Op::succeed:
                got = b.succeeded(st.id);
                break;
              case Op::fail:
                got = b.failed(st.tick, st.id);
                break;
            }
            EXPECT_EQ(got, st.expect) << sc.name << ", step " << i;
            EXPECT_EQ(b.state(), st.after) << sc.name << ", step " << i;
            EXPECT_EQ(b.closed(), st.after == State::closed)
                << sc.name << ", step " << i;
        }
    }
}

} // namespace
} // namespace snpu
