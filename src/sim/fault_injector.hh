/**
 * @file
 * Deterministic cross-layer fault injection. The paper's security
 * story is that the Guarder / Isolator / Monitor *detect and contain*
 * violations; this framework turns "mechanism fired" from a scripted
 * attack into a schedulable, recoverable event so the serving stack's
 * degradation under faults is testable.
 *
 * Subsystems expose named fault sites (a null-checked pointer probe
 * on the hot path — zero behavioural overhead when disarmed). A
 * FaultPlan arms a set of (site, trigger, budget) specs:
 *
 *  - nth:         fire on the Nth arming occurrence of the site
 *                 (1-based), deterministic by construction;
 *  - tick_window: fire on every occurrence whose tick falls inside
 *                 [begin, end); sites without a timebase (e.g. a raw
 *                 scratchpad access) report tick 0 and never match;
 *  - probability: fire per occurrence with probability p, drawn from
 *                 an Rng seeded only by the plan seed — under the
 *                 sweep runner the plan seed derives from the job's
 *                 submission index, so a Monte Carlo fault sweep is
 *                 bit-identical at any host thread count.
 *
 * The injector is single-simulation state, like the SoC's timing
 * models: one injector per SoC, never shared across sweep jobs.
 */

#ifndef SNPU_SIM_FAULT_INJECTOR_HH
#define SNPU_SIM_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace snpu
{

/** Where a fault can be injected. */
enum class FaultSite : std::uint8_t
{
    /** DMA engine: the transfer errors out mid-flight. */
    dma_transfer,
    /** Guarder: a translation/permission check denies the request. */
    guarder_check,
    /** NoC: head-flit corruption drops the packet. */
    noc_head_flit,
    /** NoC: the peephole authentication handshake fails. */
    noc_peephole_auth,
    /** Scratchpad: a read sees a mismatched wordline ID. */
    spad_id_mismatch,
    /** Scratchpad: a stored row takes a bit flip (silent corruption). */
    spad_bit_flip,
    /** Monitor: code/model verification fails at dispatch. */
    monitor_verify,
    /** Monitor: trusted allocation fails at dispatch. */
    monitor_alloc,
    /** NPU: a dispatched task hangs until the watchdog fires. */
    task_hang,
    /** Any protection backend: a translate() check denies the
     *  request (the generic ProtectionBackend probe; the guarder
     *  keeps its historical guarder_check site). */
    protection_check,
    /** Fleet: the whole SoC fail-stops (heartbeats cease). Probed by
     *  the fleet controller once per heartbeat interval, so a
     *  probability trigger here is a per-heartbeat kill rate. */
    soc_crash,
    /** Fleet: the SoC wedges — heartbeats keep answering but no
     *  request progresses, so detection waits on the progress
     *  watchdog instead of the heartbeat deadline. */
    soc_hang,
    /** Fleet: the SoC is cordoned (thermal/ECC pressure): it drains
     *  its in-flight work but accepts no migrated tenants and counts
     *  against fleet capacity. */
    soc_degrade,
    /** Fleet: one tenant-migration handshake (re-attestation +
     *  context re-provisioning on the target) fails. Probed once per
     *  migration attempt by the fleet controller. */
    fleet_migration,
    /** Attestation: one quote exchange times out (the challenge or
     *  the quote is lost). Probed per handshake attempt — at a
     *  tenant's first secure dispatch by the serving engine, and per
     *  target re-attestation by the fleet controller. Retryable:
     *  unlike a measurement mismatch, a lost message says nothing
     *  about the platform's integrity. */
    attest,
};

constexpr std::size_t fault_site_count = 15;

const char *faultSiteName(FaultSite site);

/** When an armed site actually fires. */
enum class FaultTrigger : std::uint8_t
{
    nth,
    tick_window,
    probability,
};

/** One armed fault. */
struct FaultSpec
{
    FaultSite site = FaultSite::dma_transfer;
    FaultTrigger trigger = FaultTrigger::nth;
    /** nth: 1-based occurrence that fires. */
    std::uint64_t nth = 1;
    /** tick_window: fire while begin <= tick < end. */
    Tick window_begin = 0;
    Tick window_end = std::numeric_limits<Tick>::max();
    /** probability: per-occurrence chance of firing. */
    double probability = 0.0;
    /** Total fires allowed for this spec; 0 = unlimited. */
    std::uint32_t max_fires = 1;
};

/** A deterministic fault schedule for one simulation. */
struct FaultPlan
{
    std::vector<FaultSpec> faults;
    /** Seeds the probability-trigger Rng (job seed under a sweep). */
    std::uint64_t seed = 0x5eedfa17ULL;
};

/** One fault that fired (the injection log). */
struct FaultRecord
{
    FaultSite site;
    Tick tick;
    /** Arming occurrence number (1-based) at which it fired. */
    std::uint64_t occurrence;
};

/**
 * The injector. Subsystems call shouldInject(site, now) at each
 * armed site; the call counts one occurrence of the site and reports
 * whether any spec fires there. Occurrence counting and Rng draws
 * happen in simulation call order, which is deterministic, so the
 * same plan always faults the same operations.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan = {});

    /**
     * Probe a site at simulated time @p now. Sites with no natural
     * timebase pass 0 (tick-window triggers then never match them).
     * Inline: a probe of a site the plan does not target only counts
     * the occurrence, and a per-row scratchpad read probes twice.
     */
    bool
    shouldInject(FaultSite site, Tick now)
    {
        const std::uint64_t occ = ++counts[static_cast<std::size_t>(site)];
        return targets(site) && probeArmed(site, now, occ);
    }

    /** Occurrences probed so far at @p site (fired or not). */
    std::uint64_t occurrences(FaultSite site) const;

    /** Whether any spec of the plan arms @p site. */
    bool targets(FaultSite site) const
    {
        const auto s = static_cast<std::size_t>(site);
        return site_begin[s] != site_begin[s + 1];
    }

    /**
     * Count @p n occurrences of a site the plan does not target, as
     * @p n shouldInject() calls would: none of them can fire or draw
     * from the Rng. Lets a batched access (e.g. a scratchpad range)
     * keep occurrences() exact without probing row by row. Panics
     * if the plan targets @p site. Inline: a scratchpad read range
     * calls it twice.
     */
    void
    skip(FaultSite site, std::uint64_t n)
    {
        if (targets(site)) [[unlikely]]
            skipArmed(site);
        counts[static_cast<std::size_t>(site)] += n;
    }

    /** Every fault that fired, in firing order. */
    const std::vector<FaultRecord> &fired() const { return log; }

    /** Total fires across all sites. */
    std::uint64_t fireCount() const { return log.size(); }

    /** Forget all occurrence counts and the log; keep the plan. */
    void reset();

    const FaultPlan &plan() const { return _plan; }

  private:
    /**
     * shouldInject() at a targeted site, whose occurrence @p occ is
     * already counted: evaluate every spec of the site.
     */
    bool probeArmed(FaultSite site, Tick now, std::uint64_t occ);

    /** skip() on an armed site: panics. */
    [[noreturn]] void skipArmed(FaultSite site) const;

    FaultPlan _plan;
    Rng rng;
    std::array<std::uint64_t, fault_site_count> counts{};
    /**
     * Plan spec indices grouped by site, in plan order within a site:
     * site s owns site_specs[site_begin[s], site_begin[s + 1]), so a
     * probe visits only its own specs.
     */
    std::vector<std::uint32_t> site_specs;
    std::array<std::uint32_t, fault_site_count + 1> site_begin{};
    std::vector<std::uint32_t> fires_per_spec;
    std::vector<FaultRecord> log;
};

} // namespace snpu

#endif // SNPU_SIM_FAULT_INJECTOR_HH
