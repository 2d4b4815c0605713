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
    // Counting sort of the spec indices by site, stable in plan order.
    for (const FaultSpec &spec : _plan.faults)
        ++site_begin[static_cast<std::size_t>(spec.site) + 1];
    for (std::size_t s = 0; s < fault_site_count; ++s)
        site_begin[s + 1] += site_begin[s];
    site_specs.resize(_plan.faults.size());
    auto next = site_begin;
    for (std::size_t i = 0; i < _plan.faults.size(); ++i) {
        const auto s = static_cast<std::size_t>(_plan.faults[i].site);
        site_specs[next[s]++] = static_cast<std::uint32_t>(i);
    }
}

std::uint64_t
FaultInjector::occurrences(FaultSite site) const
{
    return counts[static_cast<std::size_t>(site)];
}

void
FaultInjector::skipArmed(FaultSite site) const
{
    panic("FaultInjector::skip: site ", faultSiteName(site), " is armed");
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
FaultInjector::probeArmed(FaultSite site, Tick now, std::uint64_t occ)
{
    bool fire = false;
    const auto s = static_cast<std::size_t>(site);
    for (std::uint32_t k = site_begin[s]; k < site_begin[s + 1]; ++k) {
        const std::uint32_t i = site_specs[k];
        const FaultSpec &spec = _plan.faults[i];
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
