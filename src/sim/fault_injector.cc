#include "sim/fault_injector.hh"

#include "sim/logging.hh"

namespace snpu
{

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::dma_transfer:
        return "dma_transfer";
      case FaultSite::guarder_check:
        return "guarder_check";
      case FaultSite::noc_head_flit:
        return "noc_head_flit";
      case FaultSite::noc_peephole_auth:
        return "noc_peephole_auth";
      case FaultSite::spad_id_mismatch:
        return "spad_id_mismatch";
      case FaultSite::spad_bit_flip:
        return "spad_bit_flip";
      case FaultSite::monitor_verify:
        return "monitor_verify";
      case FaultSite::monitor_alloc:
        return "monitor_alloc";
      case FaultSite::task_hang:
        return "task_hang";
      case FaultSite::protection_check:
        return "protection_check";
      case FaultSite::soc_crash:
        return "soc_crash";
      case FaultSite::soc_hang:
        return "soc_hang";
      case FaultSite::soc_degrade:
        return "soc_degrade";
      case FaultSite::fleet_migration:
        return "fleet_migration";
      case FaultSite::attest:
        return "attest";
    }
    return "?";
}

FaultInjector::FaultInjector(FaultPlan plan)
    : _plan(std::move(plan)), rng(_plan.seed),
      fires_per_spec(_plan.faults.size(), 0)
{
    for (const FaultSpec &spec : _plan.faults)
        targeted[static_cast<std::size_t>(spec.site)] = true;
}

std::uint64_t
FaultInjector::occurrences(FaultSite site) const
{
    return counts[static_cast<std::size_t>(site)];
}

void
FaultInjector::skip(FaultSite site, std::uint64_t n)
{
    if (targets(site))
        panic("FaultInjector::skip: site ", faultSiteName(site),
              " is armed");
    counts[static_cast<std::size_t>(site)] += n;
}

void
FaultInjector::reset()
{
    counts.fill(0);
    fires_per_spec.assign(_plan.faults.size(), 0);
    log.clear();
    rng = Rng(_plan.seed);
}

bool
FaultInjector::shouldInject(FaultSite site, Tick now)
{
    const std::uint64_t occ = ++counts[static_cast<std::size_t>(site)];

    bool fire = false;
    for (std::size_t i = 0; i < _plan.faults.size(); ++i) {
        const FaultSpec &spec = _plan.faults[i];
        if (spec.site != site)
            continue;
        if (spec.max_fires != 0 &&
            fires_per_spec[i] >= spec.max_fires) {
            continue;
        }

        bool hit = false;
        switch (spec.trigger) {
          case FaultTrigger::nth:
            hit = occ == spec.nth;
            break;
          case FaultTrigger::tick_window:
            hit = now >= spec.window_begin && now < spec.window_end;
            break;
          case FaultTrigger::probability:
            // The draw happens whether or not it hits, so the random
            // stream advances identically across runs of the same
            // plan regardless of which specs fire.
            hit = rng.chance(spec.probability);
            break;
        }
        if (hit) {
            ++fires_per_spec[i];
            fire = true;
        }
    }

    if (fire)
        log.push_back(FaultRecord{site, now, occ});
    return fire;
}

} // namespace snpu
