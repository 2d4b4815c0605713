/**
 * @file
 * FleetController — fault-tolerant serving across a fleet of
 * independently-simulated SoCs. Each SoC is a fault domain: a fresh
 * Soc + SnpuServer pair whose only coupling to the rest of the fleet
 * is the controller's health checking and tenant migration, so a
 * crash never corrupts a neighbour's state by construction.
 *
 * Health checking is modeled on the controller's timeline: every
 * SoC's fleet-scoped fault sites (soc_crash / soc_hang / soc_degrade)
 * are probed per heartbeat up to a horizon, open-loop and seeded per
 * SoC, so a fleet experiment is a pure function of its
 * configuration. A crash or hang evicts the SoC; a degrade cordons it.
 *
 * Failover is tenant-granular: completions before the fault stand
 * (causality), and every pending request migrates with its tenant to
 * the least-loaded warm SoC after the secure-session handshake
 * (re-attestation with bounded retries, context re-provisioning
 * through the target's ProtectionBackend, a resettle charge). A
 * mid-generation decode stream loses its KV cache and re-runs
 * prefill there. Repeated handshake failures trip a CircuitBreaker,
 * the one behind the server's tenant quarantine. Below a capacity
 * threshold the lowest-priority migrating tenants are shed with
 * StatusCode::degraded instead.
 *
 * The whole simulation is wave-based: each SoC serves its full
 * window up front; evictions are processed in detection order,
 * truncating the dead SoC's outcomes at its fault tick and
 * re-serving targets with the migrated arrivals appended. Because
 * migrated arrivals land strictly after the fault they escaped,
 * earlier completions on the target are unchanged — the re-serve is
 * a refinement, not a contradiction, and the process-wide timing
 * caches make it cheap.
 */

#ifndef SNPU_FLEET_FLEET_CONTROLLER_HH
#define SNPU_FLEET_FLEET_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/soc_config.hh"
#include "core/task.hh"
#include "fleet/fleet_stats.hh"
#include "serve/server.hh"
#include "sim/fault_injector.hh"
#include "sim/hashing.hh"
#include "sim/stats.hh"

namespace snpu
{

/** SoC @p n's seed from fleet-wide @p seed, for its jitter, serving
 *  fault plan and fleet fault schedule (index 0 is the controller's
 *  own handshake stream). */
inline std::uint64_t
fleetSocSeed(std::uint64_t seed, std::uint32_t n)
{
    return hashMix(seed, std::uint64_t(n) + 1);
}

/** One tenant of the fleet. */
struct FleetTenantSpec
{
    /** The serving spec; the name must be unique fleet-wide. */
    TenantSpec spec;
    /** Home SoC (tenant affinity). */
    std::uint32_t home = 0;
    /** Shed order under capacity loss: lower sheds first. */
    std::int32_t priority = 0;
};

/** Fleet configuration. */
struct FleetConfig
{
    /** SoCs in the fleet; each is an independent fault domain. */
    std::uint32_t num_socs = 4;
    /** Hardware configuration of every SoC (homogeneous fleet). */
    SocParams soc = makeSystem(SystemKind::snpu);
    /** Per-SoC serving configuration; each SoC's jitter and
     *  fault-plan seeds derive from these through fleetSocSeed. */
    ServerConfig server{};

    /** Controller heartbeat probe interval (cycles). */
    Tick heartbeat_interval = 50'000;
    /** Missed heartbeats before a silent SoC is declared crashed. */
    std::uint32_t heartbeat_misses = 3;
    /** Hang detection takes this many times the crash deadline (the
     *  wedged SoC still answers heartbeats). */
    std::uint32_t hang_detect_factor = 4;
    /** Fleet fault-probe horizon (cycles); fleet-scoped sites are
     *  probed each heartbeat up to here. Required (> 0) when
     *  fault_injection is on. */
    Tick horizon = 0;

    /** Arm the fleet-scoped fault sites (soc_crash / soc_hang /
     *  soc_degrade / fleet_migration) with this plan. Each SoC's
     *  injector is seeded with fleetSocSeed(plan.seed, soc). */
    bool fault_injection = false;
    FaultPlan fault_plan{};

    /** Migrate evicted tenants to warm SoCs; off, every pending
     *  request on an evicted SoC fails (the collapse baseline). */
    bool failover = true;
    /** Handshake retry budget per migration (attempts = 1 + this). */
    std::uint32_t migration_retries = 3;
    /** Base handshake retry backoff; attempt k waits
     *  backoff << (k-1) cycles. */
    Tick migration_backoff = 10'000;
    /** Secure-session re-establishment charge per migration
     *  (re-attestation + context re-provisioning on the target). */
    Tick resettle_cycles = 2'000;
    /** Consecutive handshake failures that trip the fleet migration
     *  breaker; 0 disables the breaker. */
    std::uint32_t breaker_threshold = 4;
    /** Open-breaker cool-down before one half-open trial; 0 never
     *  cools, as ServerConfig::quarantine_cooldown. */
    Tick breaker_cooldown = 500'000;
    /** Shed lowest-priority migrating tenants once the alive
     *  fraction of the fleet (cordoned SoCs count) drops below this. */
    double shed_below_capacity = 0.25;

    /** Fleet latency histogram range/resolution (cycles). */
    double latency_hist_max = 2.0e7;
    std::size_t latency_hist_buckets = 256;
    /** Capture each SoC's final stats tree as JSON into
     *  SocReport::stats_json (costly; off by default). */
    bool capture_soc_stats = false;
};

/** Per-SoC outcome. */
struct SocReport
{
    std::uint32_t soc = 0;
    /** Terminal condition of the SoC at window end. */
    bool crashed = false;
    bool hung = false;
    bool degraded = false;
    Tick fault_tick = 0;
    /** Tick the controller learned of the fault. */
    Tick detected_tick = 0;
    /** Tenants homed here at the start / hosted at the end. */
    std::uint32_t tenants_start = 0;
    std::uint32_t tenants_end = 0;
    std::uint32_t migrated_in = 0;
    std::uint32_t migrated_out = 0;
    /** Requests this SoC completed (causally valid ones only). */
    std::uint64_t completed = 0;
    /** Final stats tree (FleetConfig::capture_soc_stats only). */
    std::string stats_json;
};

/** Terminal outcome of one fleet request. */
struct FleetRequest
{
    Tick arrival = 0;
    Tick finished = 0;
    StatusCode final = StatusCode::internal;
    /** SoC the request terminated on. */
    std::uint32_t soc = 0;
    /** True when the request moved SoCs at least once. */
    bool migrated = false;
};

/** Whole-window fleet outcome. */
struct FleetResult : ExecOutcome
{
    /** completed / offered. */
    double availability = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;

    std::uint32_t evictions = 0;
    std::uint32_t migrations = 0;
    std::uint32_t migration_failures = 0;
    std::uint32_t breaker_trips = 0;
    std::uint32_t breaker_probes = 0;
    std::uint32_t breaker_readmissions = 0;
    std::uint64_t re_prefills = 0;
    std::uint64_t lost_tokens = 0;
    Tick migration_cycles = 0;
    /** Target-SoC re-attestations performed before migrating
     *  (FleetConfig::server.attestation only). */
    std::uint32_t re_attests = 0;

    /** Last causally-valid completion tick fleet-wide. */
    Tick makespan = 0;
    /** Fleet-wide latency percentiles against original arrivals. */
    Tick p50 = 0;
    Tick p95 = 0;
    Tick p99 = 0;
    Tick ttft_p50 = 0;
    Tick ttft_p99 = 0;

    std::vector<SocReport> socs;
    /** Per-request ledger, per tenant (input order). */
    std::vector<std::vector<FleetRequest>> requests;
};

/** The fleet controller. */
class FleetController
{
  public:
    explicit FleetController(FleetConfig cfg);
    ~FleetController();

    /**
     * Serve every tenant's request stream across the fleet. One
     * window per controller instance, mirroring SnpuServer.
     */
    FleetResult run(const std::vector<FleetTenantSpec> &tenants);

    /** The fleet stat group (valid after run()). */
    const FleetStats &fleetStats() const { return *stats_; }

    /** Registry holding the fleet group, for machine dumps. */
    stats::Registry &registry() { return registry_; }

  private:
    class Window; // one serving window, one method per fleet event

    FleetConfig cfg;
    stats::Registry registry_;
    std::unique_ptr<FleetStats> stats_;
    bool ran = false;
};

} // namespace snpu

#endif // SNPU_FLEET_FLEET_CONTROLLER_HH
