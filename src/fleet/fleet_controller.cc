#include "fleet/fleet_controller.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_set>

#include "core/soc.hh"
#include "serve/circuit_breaker.hh"
#include "sim/logging.hh"
#include "tee/attestation.hh"

namespace snpu
{

/**
 * One fleet serving window: the request ledger, the nodes, the
 * migration-handshake injector, the target-attestation state and the
 * migration breaker, with one method per fleet event; run() drives it.
 */
class FleetController::Window
{
  public:
    /**
     * One fleet tenant as hosted by one SoC: the subset of its
     * requests currently homed here, with each on-node arrival tick
     * mapped back to the fleet-level request index (a migrated
     * request keeps its identity while its arrival is re-timed to
     * the migration).
     */
    struct NodeTenant
    {
        std::uint32_t fleet = 0;
        std::vector<Tick> arrivals;
        std::vector<std::uint32_t> instance;
        /** Migrated in: context re-provisioning runs before serving. */
        bool migrated_in = false;
        /** A set pending on an evicted SoC: requests whose prefill had
         *  retired before the fault re-run it on the target. */
        std::uint64_t re_prefills = 0;
    };

    Window(const FleetConfig &cfg,
           const std::vector<FleetTenantSpec> &tenants, FleetStats &fs)
        : cfg(cfg), tenants(tenants), fs(fs), ledger(tenants.size()),
          nodes(cfg.num_socs),
          breaker(cfg.breaker_threshold, cfg.breaker_cooldown)
    {
        for (std::uint32_t f = 0; f < ledger.size(); ++f) {
            ledger[f].resize(tenants[f].spec.arrivals.size());
            for (std::size_t i = 0; i < ledger[f].size(); ++i)
                ledger[f][i].req.arrival = tenants[f].spec.arrivals[i];
        }
        for (std::uint32_t n = 0; n < cfg.num_socs; ++n)
            nodes[n].report.soc = n;
        if (cfg.fault_injection) {
            FaultPlan plan = cfg.fault_plan;
            plan.seed = hashMix(cfg.fault_plan.seed, std::uint64_t(0));
            mig_inj = std::make_unique<FaultInjector>(plan);
        }
        if (cfg.server.attestation) {
            const auto boot = measuredBoot(cfg.soc);
            fleet_boot_mr = boot->report.measurement;
            attest_key = deriveAttestKey(monitorSealedKey());
            attest_verifier = std::make_unique<AttestVerifier>(
                attest_key, boot->golden);
            re_attest_cycles = attestHandshakeCycles(0);
        }
    }

    static Status validate(const FleetConfig &cfg,
                           const std::vector<FleetTenantSpec> &tenants)
    {
        const auto bad = [](const std::string &why) {
            return Status::invalidArgument(why);
        };
        if (cfg.num_socs == 0)
            return bad("fleet needs at least one SoC");
        if (tenants.empty())
            return bad("no tenants");
        if (cfg.fault_injection && cfg.horizon == 0)
            return bad("fleet fault injection needs a probe horizon");
        if (cfg.heartbeat_interval == 0)
            return bad("heartbeat interval must be positive");
        std::unordered_set<std::string> names;
        for (const FleetTenantSpec &t : tenants) {
            if (t.home >= cfg.num_socs) {
                return bad("tenant " + t.spec.name + " homed on SoC " +
                           std::to_string(t.home) + " of " +
                           std::to_string(cfg.num_socs));
            }
            if (!names.insert(t.spec.name).second) {
                return bad("tenant names must be unique fleet-wide: " +
                           t.spec.name);
            }
        }
        return Status::ok();
    }

    /** Home-affinity placement. */
    void place()
    {
        for (std::uint32_t f = 0; f < tenants.size(); ++f) {
            NodeTenant nt;
            nt.fleet = f;
            nt.arrivals = tenants[f].spec.arrivals;
            nt.instance.resize(nt.arrivals.size());
            std::iota(nt.instance.begin(), nt.instance.end(), 0u);
            Node &home = nodes[tenants[f].home];
            home.tenants.push_back(std::move(nt));
            ++home.report.tenants_start;
        }
    }

    /**
     * Probe each SoC's injector once per heartbeat up to the horizon,
     * open-loop; the first firing site wins and fixes the SoC's fate.
     * A crash goes silent (detected after heartbeat_misses missed
     * beats); a hang answers heartbeats, so only the slower progress
     * watchdog catches it; a degrade is self-reported at the probe.
     */
    void drawFaults()
    {
        if (!cfg.fault_injection)
            return;
        const Tick hb = cfg.heartbeat_interval;
        const Tick crash_lag = Tick{cfg.heartbeat_misses} * hb;
        const Tick hang_lag = crash_lag * Tick{cfg.hang_detect_factor};
        for (std::uint32_t n = 0; n < cfg.num_socs; ++n) {
            FaultPlan plan = cfg.fault_plan;
            plan.seed = fleetSocSeed(cfg.fault_plan.seed, n);
            FaultInjector inj(plan);
            Node &node = nodes[n];
            for (Tick t = hb; t <= cfg.horizon && !node.fault; t += hb) {
                for (FaultSite site :
                     {FaultSite::soc_crash, FaultSite::soc_hang,
                      FaultSite::soc_degrade}) {
                    if (!inj.shouldInject(site, t))
                        continue;
                    node.fault = site;
                    node.report.fault_tick = t;
                    node.report.detected_tick =
                        t + (site == FaultSite::soc_crash  ? crash_lag
                             : site == FaultSite::soc_hang ? hang_lag
                                                           : 0);
                    break;
                }
            }
        }
    }

    /** Serve node @p n's current tenant set on a fresh SoC. */
    void serve(std::uint32_t n)
    {
        Node &node = nodes[n];
        if (node.tenants.empty())
            return; // nothing to split later, so no result either
        Soc soc(cfg.soc);

        // Per-SoC serving config: request recording on (the eviction
        // cutoffs need per-request outcomes) and decorrelated per-SoC
        // seeds so fault domains draw independent random streams.
        ServerConfig sc = cfg.server;
        sc.record_requests = true;
        sc.jitter_seed = fleetSocSeed(cfg.server.jitter_seed, n);
        if (sc.fault_injection) {
            sc.fault_plan.seed =
                fleetSocSeed(cfg.server.fault_plan.seed, n);
        }

        std::vector<TenantSpec> specs;
        for (const NodeTenant &nt : node.tenants) {
            const TenantSpec &t = tenants[nt.fleet].spec;
            specs.push_back(t);
            specs.back().arrivals = nt.arrivals;
            if (!nt.migrated_in)
                continue;
            // Secure-session re-establishment, functional leg: a
            // migrated tenant's context is re-provisioned through the
            // target's protection backend before it serves. The
            // fleet_migration site models the handshake's failures, so
            // a failure here means the fleet configuration is broken.
            const AddrRange &arena =
                soc.mem().map().npuArena(t.task.world);
            ProtectionContext ctx;
            ctx.va_base = arena.base;
            ctx.pa_base = arena.base;
            ctx.bytes =
                std::min<Addr>(t.task.model.weightBytes(), Addr{1} << 20);
            ctx.world = t.task.world;
            // The monitor programs protection contexts, so the call is
            // always secure-privileged; ctx.world still scopes the
            // window to the tenant's world.
            Status st = soc.protection(0).beginContext(ctx, true);
            if (st.isOk())
                st = soc.protection(0).endContext(true);
            if (!st.isOk()) {
                fatal("fleet: context re-provisioning for migrated "
                      "tenant ", t.name, " on SoC ", n, " failed: ",
                      st.message());
            }
        }

        SnpuServer server(soc, sc);
        node.last = server.serve(specs);
        if (!node.last.ok()) {
            fatal("fleet: SoC ", n, " serving window failed: ",
                  node.last.error());
        }
        if (cfg.capture_soc_stats) {
            std::ostringstream os;
            soc.registry().dumpJson(os);
            node.report.stats_json = os.str();
        }
    }

    /** Faulted SoCs in the order the controller learns of them (index
     *  order breaks ties). */
    std::vector<std::uint32_t> detectionOrder() const
    {
        std::vector<std::uint32_t> order;
        for (std::uint32_t n = 0; n < cfg.num_socs; ++n) {
            if (nodes[n].fault)
                order.push_back(n);
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return nodes[a].report.detected_tick <
                                    nodes[b].report.detected_tick;
                         });
        return order;
    }

    FaultSite fault(std::uint32_t n) const { return *nodes[n].fault; }

    /** A degraded SoC drains its own work (its outcomes stand) but
     *  takes no migrants from here on. */
    void cordon(std::uint32_t n)
    {
        nodes[n].report.degraded = true;
        ++fs.degrades;
    }

    /** A crashed or hung SoC is evicted: completions up to its fault
     *  tick stand, the rest is returned pending and must fail over. */
    std::vector<NodeTenant> evict(std::uint32_t n)
    {
        Node &node = nodes[n];
        node.report.crashed = *node.fault == FaultSite::soc_crash;
        node.report.hung = *node.fault == FaultSite::soc_hang;
        ++fs.evictions;
        ++(node.report.crashed ? fs.crashes : fs.hangs);
        std::vector<NodeTenant> pending = split(n, node.report.fault_tick);
        node.tenants.clear();
        return pending;
    }

    /** Fail over evicted SoC @p n's pending work: shed it, fail it,
     *  or hand it to a target after the handshake. Returns the
     *  targets, which must re-serve. */
    std::set<std::uint32_t> migrate(std::uint32_t n,
                                    std::vector<NodeTenant> &pending)
    {
        const Tick detect = nodes[n].report.detected_tick;
        const std::vector<bool> keep = keepers();
        std::set<std::uint32_t> targets;
        for (NodeTenant &p : pending) {
            nodes[n].report.migrated_out +=
                static_cast<std::uint32_t>(p.arrivals.size());
            if (!cfg.failover) {
                failPending(n, p, StatusCode::fault_injected);
                continue;
            }
            if (!keep[p.fleet]) {
                fs.shed += static_cast<double>(p.arrivals.size());
                failPending(n, p, StatusCode::degraded);
                continue;
            }
            const std::optional<std::uint32_t> target = pickTarget();
            const std::optional<Tick> ok_at =
                target ? handshake(detect, p.fleet) : std::nullopt;
            if (!ok_at) {
                failPending(n, p, StatusCode::fault_injected);
                continue;
            }
            const Tick ready = *ok_at + cfg.resettle_cycles;
            fs.migration_cycles +=
                static_cast<double>(cfg.resettle_cycles);
            ++fs.migrations;
            // Mid-generation migrants re-run prefill on the target
            // (the KV cache died with the source SoC).
            fs.re_prefills += static_cast<double>(p.re_prefills);
            for (std::size_t k = 0; k < p.arrivals.size(); ++k) {
                p.arrivals[k] = std::max(p.arrivals[k], ready);
                ledger[p.fleet][p.instance[k]].req.migrated = true;
            }
            Node &tgt = nodes[*target];
            tgt.report.migrated_in +=
                static_cast<std::uint32_t>(p.arrivals.size());
            tgt.tenants.push_back(std::move(p));
            targets.insert(*target);
        }
        return targets;
    }

    /** Window end: the eviction split with no cutoff, so everything
     *  still hosted is final as-is (an evicted SoC hosts nothing). */
    void settle()
    {
        for (std::uint32_t n = 0; n < cfg.num_socs; ++n) {
            nodes[n].report.tenants_end =
                static_cast<std::uint32_t>(nodes[n].tenants.size());
            split(n, std::numeric_limits<Tick>::max());
        }
    }

    /** Fold the ledger into the fleet stat family and the result. */
    FleetResult report()
    {
        FleetResult result;
        result.requests.resize(ledger.size());
        for (std::uint32_t f = 0; f < ledger.size(); ++f) {
            const bool generates = tenants[f].spec.decode_tokens > 0;
            for (const Entry &e : ledger[f]) {
                ++fs.offered;
                const FleetRequest &r = e.req;
                switch (r.final) {
                  case StatusCode::ok:
                    ++fs.completed;
                    fs.latency.sample(
                        static_cast<double>(r.finished - r.arrival));
                    if (generates && e.prefill != 0) {
                        fs.ttft.sample(
                            static_cast<double>(e.prefill - r.arrival));
                    }
                    result.makespan = std::max(result.makespan, r.finished);
                    break;
                  case StatusCode::resource_exhausted:
                    ++fs.rejected;
                    break;
                  case StatusCode::degraded:
                    // Shed requests also count one failure apiece in
                    // the sense of "not served"; keep them distinct.
                    break;
                  default:
                    ++fs.failed;
                    break;
                }
                result.requests[f].push_back(r);
            }
        }

        const auto count = [](const stats::Scalar &s) {
            return static_cast<std::uint64_t>(s.value());
        };
        const auto count32 = [](const stats::Scalar &s) {
            return static_cast<std::uint32_t>(s.value());
        };
        result.status = Status::ok();
        result.cycles = result.makespan;
        result.offered = count(fs.offered);
        result.completed = count(fs.completed);
        result.failed = count(fs.failed);
        result.rejected = count(fs.rejected);
        result.shed = count(fs.shed);
        result.availability =
            result.offered ? static_cast<double>(result.completed) /
                                 static_cast<double>(result.offered)
                           : 0.0;
        result.evictions = count32(fs.evictions);
        result.migrations = count32(fs.migrations);
        result.migration_failures = count32(fs.migration_failures);
        result.breaker_trips = count32(fs.breaker_trips);
        result.breaker_probes = count32(fs.breaker_probes);
        result.breaker_readmissions = count32(fs.breaker_readmits);
        result.re_attests = count32(fs.re_attests);
        result.re_prefills = count(fs.re_prefills);
        result.lost_tokens = count(fs.lost_tokens);
        result.migration_cycles = count(fs.migration_cycles);
        result.p50 = static_cast<Tick>(fs.latency.percentile(0.50));
        result.p95 = static_cast<Tick>(fs.latency.percentile(0.95));
        result.p99 = static_cast<Tick>(fs.latency.percentile(0.99));
        result.ttft_p50 = static_cast<Tick>(fs.ttft.percentile(0.50));
        result.ttft_p99 = static_cast<Tick>(fs.ttft.percentile(0.99));
        for (Node &node : nodes)
            result.socs.push_back(std::move(node.report));
        return result;
    }

  private:
    /** One SoC of the fleet plus its serving state. */
    struct Node
    {
        std::vector<NodeTenant> tenants;
        ServeResult last;
        /** Fleet-scoped fault drawn up front; its fault and detection
         *  ticks live in report. */
        std::optional<FaultSite> fault;
        SocReport report;

        /** Evicted (crashed or hung): it hosts nothing any more. */
        bool dead() const { return report.crashed || report.hung; }
    };

    /** One fleet request's terminal outcome, finalized at its host's
     *  eviction cutoff or at window end. One that misses finalization
     *  (a controller bug) keeps the default StatusCode::internal. */
    struct Entry
    {
        FleetRequest req;
        Tick prefill = 0;
    };

    /**
     * Split node @p n's recorded outcomes at @p cutoff: one that
     * terminated at or before it goes into the ledger as final, the
     * rest come back pending per tenant. Every recorded outcome is
     * terminal, so its tick alone decides (a request rejected at
     * admission on tick 0 is final too).
     */
    std::vector<NodeTenant> split(std::uint32_t n, Tick cutoff)
    {
        Node &node = nodes[n];
        std::vector<NodeTenant> pending;
        for (std::size_t slot = 0; slot < node.tenants.size(); ++slot) {
            const NodeTenant &nt = node.tenants[slot];
            const std::vector<RequestOutcome> &outs =
                node.last.tenants[slot].requests;
            NodeTenant p;
            p.fleet = nt.fleet;
            p.migrated_in = true;
            for (std::size_t k = 0; k < outs.size(); ++k) {
                const RequestOutcome &o = outs[k];
                if (o.finished <= cutoff) {
                    Entry &e = ledger[nt.fleet][nt.instance[k]];
                    e.req.finished = o.finished;
                    e.req.final = o.final;
                    e.req.soc = n;
                    e.prefill = o.prefill_done;
                    if (o.final == StatusCode::ok)
                        ++node.report.completed;
                    continue;
                }
                // Pending: mid-generation state dies with the SoC.
                std::uint64_t lost = 0;
                for (Tick tk : o.token_ticks)
                    lost += tk <= cutoff ? 1 : 0;
                fs.lost_tokens += static_cast<double>(lost);
                if (o.prefill_done != 0 && o.prefill_done <= cutoff)
                    ++p.re_prefills;
                p.arrivals.push_back(nt.arrivals[k]);
                p.instance.push_back(nt.instance[k]);
            }
            if (!p.arrivals.empty())
                pending.push_back(std::move(p));
        }
        return pending;
    }

    /** Fail a pending set on evicted SoC @p n: each request ends at
     *  the detection tick, or at its arrival there if later, and one
     *  that moved before keeps its migrated flag. */
    void failPending(std::uint32_t n, const NodeTenant &p,
                     StatusCode code)
    {
        const Tick detect = nodes[n].report.detected_tick;
        for (std::size_t k = 0; k < p.arrivals.size(); ++k) {
            FleetRequest &r = ledger[p.fleet][p.instance[k]].req;
            r.finished = std::max(p.arrivals[k], detect);
            r.final = code;
            r.soc = n;
        }
    }

    /**
     * Graceful degradation: which tenants keep their failover. Once
     * the alive fraction of the fleet drops below
     * shed_below_capacity, only the ceil(alive fraction * tenants)
     * highest-priority tenants do (index breaks ties). A cordoned SoC
     * counts as alive here though it takes no migrants.
     */
    std::vector<bool> keepers() const
    {
        std::uint32_t alive = 0;
        for (const Node &m : nodes)
            alive += m.dead() ? 0 : 1;
        const double alive_frac = static_cast<double>(alive) /
                                  static_cast<double>(cfg.num_socs);
        const auto ntenants = static_cast<std::uint32_t>(tenants.size());
        if (alive_frac >= cfg.shed_below_capacity)
            return std::vector<bool>(ntenants, true);
        std::vector<std::uint32_t> order(ntenants);
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return tenants[a].priority >
                                    tenants[b].priority;
                         });
        const auto nkeep = static_cast<std::uint32_t>(
            std::ceil(alive_frac * static_cast<double>(ntenants)));
        std::vector<bool> keep(ntenants, false);
        for (std::uint32_t i = 0; i < nkeep && i < ntenants; ++i)
            keep[order[i]] = true;
        return keep;
    }

    /** The least-loaded warm SoC: dead and cordoned SoCs take no
     *  migrants, and index breaks ties. */
    std::optional<std::uint32_t> pickTarget() const
    {
        std::optional<std::uint32_t> target;
        for (std::uint32_t m = 0; m < cfg.num_socs; ++m) {
            if (nodes[m].dead() || nodes[m].report.degraded)
                continue;
            if (!target ||
                nodes[m].tenants.size() < nodes[*target].tenants.size())
                target = m;
        }
        return target;
    }

    /**
     * One migration handshake for @p tenant (target re-attestation +
     * session re-establishment) with bounded exponential-backoff
     * retries against the fleet_migration and attest sites. An open
     * breaker fails fast until it cools; a cooled breaker's handshake
     * is its half-open trial, one attempt with no retries. Returns
     * the completion tick, or nothing on failure.
     */
    std::optional<Tick> handshake(Tick start, std::uint32_t tenant)
    {
        const bool trial = !breaker.closed();
        if (trial) {
            if (!breaker.startTrial(start, tenant))
                return std::nullopt;
            ++fs.breaker_probes;
        }
        const std::uint32_t attempts =
            trial ? 1 : cfg.migration_retries + 1;
        Tick t = start;
        for (std::uint32_t a = 1; a <= attempts; ++a) {
            if ((!mig_inj ||
                 !mig_inj->shouldInject(FaultSite::fleet_migration, t)) &&
                reAttest(t)) {
                if (breaker.succeeded(tenant))
                    ++fs.breaker_readmits;
                return t + re_attest_cycles;
            }
            ++fs.migration_failures;
            if (breaker.failed(t, tenant)) {
                ++fs.breaker_trips;
                return std::nullopt;
            }
            t += cfg.migration_backoff << (a - 1);
        }
        return std::nullopt;
    }

    bool reAttest(Tick now)
    {
        if (!attest_verifier)
            return true;
        // An injected attest fault models the quote exchange timing
        // out on the controller's network path to the target.
        if (mig_inj && mig_inj->shouldInject(FaultSite::attest, now))
            return false;
        const AttestNonce nonce = attestNonceFromSeed(
            hashMix(attest_seed, ++attest_serial));
        const AttestQuote quote =
            makeQuote(attest_key, fleet_boot_mr, nonce);
        if (!attest_verifier->verify(quote, nonce).isOk())
            return false;
        fs.migration_cycles += static_cast<double>(re_attest_cycles);
        ++fs.re_attests;
        return true;
    }

    const FleetConfig &cfg;
    const std::vector<FleetTenantSpec> &tenants;
    FleetStats &fs;
    std::vector<std::vector<Entry>> ledger;
    std::vector<Node> nodes;
    /** Fleet-global handshake injector (one controller-side
     *  re-attestation service), seeded apart from every SoC. */
    std::unique_ptr<FaultInjector> mig_inj;
    CircuitBreaker breaker;

    /**
     * Target re-attestation (FleetConfig::server.attestation): like a
     * tenant at admission, but quoting the bare boot MR (the platform
     * is re-checked, not a model). A homogeneous fleet boots every SoC
     * from one chain, so the MR and golden reference are computed
     * once; each migration still verifies a real MAC-checked quote,
     * with a fresh nonce so the verifier's replay cache never trips.
     */
    std::unique_ptr<AttestVerifier> attest_verifier;
    Digest fleet_boot_mr{};
    std::vector<std::uint8_t> attest_key;
    Tick re_attest_cycles = 0;
    std::uint64_t attest_serial = 0;
};

FleetController::FleetController(FleetConfig cfg_) : cfg(cfg_) {}

FleetController::~FleetController() = default;

FleetResult
FleetController::run(const std::vector<FleetTenantSpec> &tenants)
{
    FleetResult result;
    if (ran) {
        result.status = Status::invalidArgument(
            "a fleet controller runs one serving window");
        return result;
    }
    ran = true;
    result.status = Window::validate(cfg, tenants);
    if (!result.status.isOk())
        return result;

    stats_ = std::make_unique<FleetStats>(cfg.latency_hist_max,
                                          cfg.latency_hist_buckets);
    registry_.add(stats_->group);
    Window w(cfg, tenants, *stats_);
    w.place();
    w.drawFaults();
    // Wave 0: every SoC serves its full window independently. With
    // no fleet faults this IS the result — N single-SoC runs.
    for (std::uint32_t n = 0; n < cfg.num_socs; ++n)
        w.serve(n);
    for (std::uint32_t n : w.detectionOrder()) {
        if (w.fault(n) == FaultSite::soc_degrade) {
            w.cordon(n);
            continue;
        }
        std::vector<Window::NodeTenant> pending = w.evict(n);
        // Re-serve every target immediately: migrated arrivals land
        // strictly after any already-finalized completion there, so
        // the re-serve refines rather than contradicts.
        for (std::uint32_t m : w.migrate(n, pending))
            w.serve(m);
    }
    w.settle();
    return w.report();
}

} // namespace snpu
