#include "serve/arrivals.hh"

#include <cmath>

#include "sim/logging.hh"

namespace snpu
{

std::vector<Tick>
poissonArrivals(Rng &rng, double mean_gap, std::uint32_t count,
                Tick start)
{
    if (mean_gap <= 0.0)
        fatal("poisson mean gap must be positive");
    std::vector<Tick> arrivals;
    arrivals.reserve(count);
    double t = static_cast<double>(start);
    for (std::uint32_t i = 0; i < count; ++i) {
        // Inverse-CDF sample; uniform() is in [0, 1) so the log
        // argument stays strictly positive.
        t += -std::log(1.0 - rng.uniform()) * mean_gap;
        arrivals.push_back(static_cast<Tick>(t));
    }
    return arrivals;
}

std::vector<Tick>
periodicArrivals(Tick period, std::uint32_t count, Tick start)
{
    std::vector<Tick> arrivals;
    arrivals.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
        arrivals.push_back(start + static_cast<Tick>(i) * period);
    return arrivals;
}

std::vector<Tick>
burstyArrivals(Rng &rng, double mean_gap, double burst_factor,
               double burst_len, std::uint32_t count, Tick start)
{
    if (mean_gap <= 0.0)
        fatal("bursty mean gap must be positive");
    if (burst_factor < 1.0)
        fatal("burst factor must be >= 1 (1 = plain Poisson)");
    if (burst_len < 1.0)
        fatal("mean burst length must be >= 1");
    // In-burst gaps run burst_factor times faster than the long-run
    // mean; the off gap between bursts restores the average: over one
    // burst of L arrivals, in-burst time is L*mean_gap/factor, so the
    // off period must contribute L*mean_gap*(1 - 1/factor).
    const double hot_gap = mean_gap / burst_factor;
    const double off_gap =
        burst_len * mean_gap * (1.0 - 1.0 / burst_factor);
    const double end_p = 1.0 / burst_len; // geometric burst length
    std::vector<Tick> arrivals;
    arrivals.reserve(count);
    double t = static_cast<double>(start);
    for (std::uint32_t i = 0; i < count; ++i) {
        t += -std::log(1.0 - rng.uniform()) * hot_gap;
        arrivals.push_back(static_cast<Tick>(t));
        if (off_gap > 0.0 && rng.chance(end_p))
            t += -std::log(1.0 - rng.uniform()) * off_gap;
    }
    return arrivals;
}

double
meanGapForLoad(double load, std::uint32_t tenants,
               std::uint32_t cores, double service_cycles)
{
    if (load <= 0.0 || tenants == 0 || cores == 0)
        fatal("offered load, tenants and cores must be positive");
    // Aggregate arrival rate tenants/gap must equal load*cores/service.
    return static_cast<double>(tenants) * service_cycles /
           (load * static_cast<double>(cores));
}

} // namespace snpu
