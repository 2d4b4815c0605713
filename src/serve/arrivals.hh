/**
 * @file
 * Open-loop request arrival generation for the serving engine.
 * Arrival processes are materialized up front as explicit tick lists
 * (the form ExecStream consumes), so a serving experiment is fully
 * determined by its seed: the generator draws from a caller-owned
 * Rng and never consults wall-clock time.
 */

#ifndef SNPU_SERVE_ARRIVALS_HH
#define SNPU_SERVE_ARRIVALS_HH

#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace snpu
{

/**
 * Poisson process: @p count arrivals with exponentially distributed
 * inter-arrival gaps of mean @p mean_gap cycles, starting at
 * @p start. Open-loop: the arrival times do not depend on service.
 */
std::vector<Tick> poissonArrivals(Rng &rng, double mean_gap,
                                  std::uint32_t count,
                                  Tick start = 0);

/** Fixed-rate trace: @p count arrivals every @p period cycles. */
std::vector<Tick> periodicArrivals(Tick period, std::uint32_t count,
                                   Tick start = 0);

/**
 * Bursty (Markov-modulated) process: geometric-length bursts (mean
 * @p burst_len arrivals) whose intra-burst gaps are exponential with
 * mean @c mean_gap/burst_factor, separated by exponential off
 * periods sized so the long-run mean gap stays @p mean_gap. With
 * burst_factor = 1 this degenerates to the Poisson process. The
 * fleet benches use it to model trace-like traffic whose short-term
 * rate swings far above the average — the regime where failover
 * headroom actually gets tested.
 */
std::vector<Tick> burstyArrivals(Rng &rng, double mean_gap,
                                 double burst_factor,
                                 double burst_len,
                                 std::uint32_t count,
                                 Tick start = 0);

/**
 * Mean inter-arrival gap (per tenant) that offers @p load of the
 * cluster's capacity: @p tenants identical streams whose requests
 * each need @p service_cycles of ideal compute, served by @p cores
 * tiles. load = 1.0 saturates the tiles in the ideal (no-overhead)
 * case; isolation overheads push the real knee below 1.0.
 */
double meanGapForLoad(double load, std::uint32_t tenants,
                      std::uint32_t cores, double service_cycles);

} // namespace snpu

#endif // SNPU_SERVE_ARRIVALS_HH
