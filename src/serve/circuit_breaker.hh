/**
 * @file
 * CircuitBreaker — the consecutive-failure breaker behind both the
 * server's per-tenant quarantine and the fleet's migration handshake.
 *
 * closed counts consecutive failures, and the threshold-th trips it
 * open. open fails attempts fast until the cool-down has elapsed; the
 * next attempt the caller admits becomes the one half-open trial.
 * Only the trial's outcome moves a half-open breaker: its success
 * closes it (a readmission), its failure starts a full cool-down
 * again. Any success resets the failure count. A threshold of 0
 * never trips, and a cool-down of 0 never cools.
 */

#ifndef SNPU_SERVE_CIRCUIT_BREAKER_HH
#define SNPU_SERVE_CIRCUIT_BREAKER_HH

#include <cstdint>

#include "sim/types.hh"

namespace snpu
{

class CircuitBreaker
{
  public:
    enum class State : std::uint8_t { closed, open, half_open };

    CircuitBreaker(std::uint32_t threshold, Tick cooldown)
        : threshold(threshold), cooldown(cooldown)
    {
    }

    State state() const { return state_; }
    bool closed() const { return state_ == State::closed; }
    bool isTrial(std::uint64_t id) const
    {
        return state_ == State::half_open && trial == id;
    }

    /** May an attempt at @p now proceed: closed, or open and cooled
     *  (the attempt is then the trial)? */
    bool admits(Tick now) const
    {
        return closed() ||
               (state_ == State::open && cooldown > 0 && now >= until);
    }

    /** Make attempt @p id the trial of a breaker that is open and
     *  cooled by @p now; false (and no change) otherwise. */
    bool startTrial(Tick now, std::uint64_t id)
    {
        if (closed() || !admits(now))
            return false;
        state_ = State::half_open;
        trial = id;
        return true;
    }

    /** Attempt @p id succeeded; true when it was the trial and so
     *  closed the breaker. */
    bool succeeded(std::uint64_t id)
    {
        failures = 0;
        const bool readmit = isTrial(id);
        if (readmit)
            state_ = State::closed;
        return readmit;
    }

    /** Attempt @p id failed at @p now; true when that opened the
     *  breaker (a trip, or the trial's failure). */
    bool failed(Tick now, std::uint64_t id)
    {
        if (!isTrial(id) &&
            (!closed() || threshold == 0 || ++failures < threshold))
            return false;
        state_ = State::open;
        until = now + cooldown;
        failures = 0;
        return true;
    }

  private:
    std::uint32_t threshold;
    Tick cooldown;
    State state_ = State::closed;
    /** Consecutive failures while closed. */
    std::uint32_t failures = 0;
    /** End of the current cool-down. */
    Tick until = 0;
    std::uint64_t trial = 0;
};

} // namespace snpu

#endif // SNPU_SERVE_CIRCUIT_BREAKER_HH
