#include "fleet/fleet_controller.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>
#include <unordered_set>

#include "core/soc.hh"
#include "sim/hashing.hh"
#include "sim/logging.hh"
#include "tee/attestation.hh"

namespace snpu
{

/**
 * One fleet tenant as hosted by one SoC: the subset of its requests
 * currently homed here, with each on-node arrival tick mapped back
 * to the fleet-level request index (a migrated request keeps its
 * identity while its arrival is re-timed to the migration).
 */
struct FleetController::NodeTenant
{
    std::uint32_t fleet = 0;
    std::vector<Tick> arrivals;
    std::vector<std::uint32_t> instance;
    /** Migrated in: context re-provisioning runs before serving. */
    bool migrated_in = false;
};

/** One SoC of the fleet plus its serving state. */
struct FleetController::Node
{
    std::vector<NodeTenant> tenants;
    ServeResult last;
    /** Evicted (crashed or hung); outcomes truncate at fault_tick. */
    bool dead = false;
    /** Cordoned: drains its work, accepts no migrants. */
    bool degraded = false;
    /** Scheduled fleet-scoped fault, drawn open-loop up front. */
    bool has_fault = false;
    FaultSite fault_site = FaultSite::soc_crash;
    Tick fault_tick = 0;
    Tick detect_tick = 0;
    SocReport report;
};

FleetController::FleetController(FleetConfig cfg_) : cfg(cfg_) {}

FleetController::~FleetController() = default;

void
FleetController::serveNode(std::uint32_t n,
                           const std::vector<FleetTenantSpec> &tenants)
{
    Node &node = nodes[n];
    if (node.tenants.empty()) {
        node.last = ServeResult{};
        node.last.status = Status::ok();
        return;
    }

    Soc soc(cfg.soc);

    // Per-SoC serving config: request recording on (the eviction
    // cutoffs need per-request outcomes) and decorrelated per-SoC
    // seeds so fault domains draw independent random streams.
    ServerConfig sc = cfg.server;
    sc.record_requests = true;
    sc.jitter_seed =
        hashMix(cfg.server.jitter_seed, std::uint64_t(n) + 1);
    if (sc.fault_injection) {
        sc.fault_plan.seed =
            hashMix(cfg.server.fault_plan.seed, std::uint64_t(n) + 1);
    }

    // Secure-session re-establishment, functional leg: a migrated
    // tenant's context is re-provisioned through the target's
    // protection backend before it serves. The handshake's failure
    // modes are modeled by the fleet_migration fault site; a failure
    // here means the fleet configuration itself is broken.
    for (const NodeTenant &nt : node.tenants) {
        if (!nt.migrated_in)
            continue;
        const TenantSpec &t = tenants[nt.fleet].spec;
        const AddrRange &arena =
            soc.mem().map().npuArena(t.task.world);
        ProtectionContext ctx;
        ctx.va_base = arena.base;
        ctx.pa_base = arena.base;
        ctx.bytes = std::min<Addr>(t.task.model.weightBytes(),
                                   Addr{1} << 20);
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

    std::vector<TenantSpec> specs;
    specs.reserve(node.tenants.size());
    for (const NodeTenant &nt : node.tenants) {
        TenantSpec t = tenants[nt.fleet].spec;
        t.arrivals = nt.arrivals;
        specs.push_back(std::move(t));
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
    if (cfg.num_socs == 0) {
        result.status =
            Status::invalidArgument("fleet needs at least one SoC");
        return result;
    }
    if (tenants.empty()) {
        result.status = Status::invalidArgument("no tenants");
        return result;
    }
    if (cfg.fault_injection && cfg.horizon == 0) {
        result.status = Status::invalidArgument(
            "fleet fault injection needs a probe horizon");
        return result;
    }
    if (cfg.heartbeat_interval == 0) {
        result.status = Status::invalidArgument(
            "heartbeat interval must be positive");
        return result;
    }
    std::unordered_set<std::string> names;
    for (const FleetTenantSpec &t : tenants) {
        if (t.home >= cfg.num_socs) {
            result.status = Status::invalidArgument(
                "tenant " + t.spec.name + " homed on SoC " +
                std::to_string(t.home) + " of " +
                std::to_string(cfg.num_socs));
            return result;
        }
        if (!names.insert(t.spec.name).second) {
            result.status = Status::invalidArgument(
                "tenant names must be unique fleet-wide: " +
                t.spec.name);
            return result;
        }
    }

    stats_ = std::make_unique<FleetStats>(cfg.latency_hist_max,
                                          cfg.latency_hist_buckets);
    registry_.add(stats_->group);
    FleetStats &fs = *stats_;

    const auto ntenants = static_cast<std::uint32_t>(tenants.size());
    nodes.assign(cfg.num_socs, Node{});
    for (std::uint32_t n = 0; n < cfg.num_socs; ++n)
        nodes[n].report.soc = n;

    // Fleet-level request ledger: every request's terminal outcome,
    // finalized either at its host's eviction cutoff (causally valid
    // completions) or at window end.
    struct Led
    {
        FleetRequest req;
        Tick prefill = 0;
        bool final_ = false;
    };
    std::vector<std::vector<Led>> ledger(ntenants);
    for (std::uint32_t f = 0; f < ntenants; ++f) {
        ledger[f].resize(tenants[f].spec.arrivals.size());
        for (std::size_t i = 0; i < ledger[f].size(); ++i)
            ledger[f][i].req.arrival = tenants[f].spec.arrivals[i];
    }

    // Home-affinity placement.
    for (std::uint32_t f = 0; f < ntenants; ++f) {
        NodeTenant nt;
        nt.fleet = f;
        nt.arrivals = tenants[f].spec.arrivals;
        nt.instance.resize(nt.arrivals.size());
        std::iota(nt.instance.begin(), nt.instance.end(), 0u);
        nodes[tenants[f].home].tenants.push_back(std::move(nt));
        ++nodes[tenants[f].home].report.tenants_start;
    }

    // Draw each SoC's fleet-scoped fault schedule open-loop: probe
    // the per-SoC injector once per heartbeat up to the horizon; the
    // first firing site wins and fixes the SoC's fate. A crash goes
    // silent (detected after heartbeat_misses missed beats); a hang
    // answers heartbeats, so only the slower progress watchdog
    // catches it; a degrade is self-reported at the probe tick.
    if (cfg.fault_injection) {
        const Tick crash_lag =
            static_cast<Tick>(cfg.heartbeat_misses) *
            cfg.heartbeat_interval;
        for (std::uint32_t n = 0; n < cfg.num_socs; ++n) {
            FaultPlan plan = cfg.fault_plan;
            plan.seed =
                hashMix(cfg.fault_plan.seed, std::uint64_t(n) + 1);
            FaultInjector inj(plan);
            for (Tick t = cfg.heartbeat_interval; t <= cfg.horizon;
                 t += cfg.heartbeat_interval) {
                FaultSite site;
                if (inj.shouldInject(FaultSite::soc_crash, t))
                    site = FaultSite::soc_crash;
                else if (inj.shouldInject(FaultSite::soc_hang, t))
                    site = FaultSite::soc_hang;
                else if (inj.shouldInject(FaultSite::soc_degrade, t))
                    site = FaultSite::soc_degrade;
                else
                    continue;
                Node &node = nodes[n];
                node.has_fault = true;
                node.fault_site = site;
                node.fault_tick = t;
                switch (site) {
                  case FaultSite::soc_crash:
                    node.detect_tick = t + crash_lag;
                    break;
                  case FaultSite::soc_hang:
                    node.detect_tick =
                        t + crash_lag *
                                static_cast<Tick>(
                                    cfg.hang_detect_factor);
                    break;
                  default: // degrade: self-reported
                    node.detect_tick = t;
                    break;
                }
                break;
            }
        }
    }

    // The migration-handshake injector is fleet-global (one
    // controller-side re-attestation service), seeded apart from
    // every per-SoC stream.
    std::unique_ptr<FaultInjector> mig_inj;
    if (cfg.fault_injection) {
        FaultPlan plan = cfg.fault_plan;
        plan.seed = hashMix(cfg.fault_plan.seed, std::uint64_t(0));
        mig_inj = std::make_unique<FaultInjector>(plan);
    }

    // Wave 0: every SoC serves its full window independently. With
    // no fleet faults this IS the result — N single-SoC runs.
    for (std::uint32_t n = 0; n < cfg.num_socs; ++n)
        serveNode(n, tenants);

    // Finalize one on-node request outcome into the fleet ledger.
    auto finalize = [&](std::uint32_t n, const NodeTenant &nt,
                        std::size_t k, const RequestOutcome &o) {
        Led &led = ledger[nt.fleet][nt.instance[k]];
        led.final_ = true;
        led.req.finished = o.finished;
        led.req.final = o.final;
        led.req.soc = n;
        led.prefill = o.prefill_done;
    };

    // Eviction and cordon events, in the order the controller
    // learns of them.
    struct Event
    {
        Tick detect = 0;
        std::uint32_t node = 0;
    };
    std::vector<Event> events;
    for (std::uint32_t n = 0; n < cfg.num_socs; ++n) {
        if (nodes[n].has_fault)
            events.push_back(Event{nodes[n].detect_tick, n});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  return a.detect != b.detect ? a.detect < b.detect
                                              : a.node < b.node;
              });

    // Fleet migration circuit breaker.
    enum class Breaker { closed, open };
    Breaker breaker = Breaker::closed;
    Tick breaker_until = 0;
    std::uint32_t consecutive_mig = 0;

    // Target re-attestation (FleetConfig::server.attestation): the
    // controller challenges the migration target's monitor before
    // re-provisioning a tenant there, exactly like a tenant at
    // admission but quoting the bare boot MR (the platform, not a
    // model, is being re-checked). A homogeneous fleet boots every
    // SoC from the same chain, so the measured MR and the golden
    // reference are computed once; verification is still a real
    // MAC-checked quote per migration, with a fresh nonce each time
    // so the verifier's replay cache never trips on legitimate
    // re-attestations.
    const bool attest_on = cfg.server.attestation;
    Tick re_attest_cycles = 0;
    Digest fleet_boot_mr{};
    std::vector<std::uint8_t> attest_key;
    std::unique_ptr<AttestVerifier> attest_verifier;
    std::uint64_t attest_serial = 0;
    if (attest_on) {
        const BootChain chain = makeBootChain(cfg.soc);
        fleet_boot_mr = chain.boot().measurement;
        attest_key = deriveAttestKey(monitorSealedKey());
        attest_verifier = std::make_unique<AttestVerifier>(
            attest_key, chain.goldenMeasurement());
        AttestTiming timing;
        timing.mac_bytes_per_cycle =
            cfg.soc.crypto_mac_bytes_per_cycle;
        re_attest_cycles = timing.handshakeCycles(0);
    }
    auto reAttest = [&](Tick now) -> bool {
        if (!attest_on)
            return true;
        // An injected attest fault models the quote exchange timing
        // out on the controller's network path to the target.
        if (mig_inj &&
            mig_inj->shouldInject(FaultSite::attest, now)) {
            return false;
        }
        const AttestNonce nonce = attestNonceFromSeed(
            hashMix(cfg.server.attest_seed, ++attest_serial));
        const AttestQuote quote =
            makeQuote(attest_key, fleet_boot_mr, nonce);
        if (!attest_verifier->verify(quote, nonce).isOk())
            return false;
        fs.migration_cycles += static_cast<double>(re_attest_cycles);
        ++fs.re_attests;
        return true;
    };

    // One migration handshake (target re-attestation + session
    // re-establishment), with bounded exponential-backoff retries
    // against the fleet_migration and attest sites. Returns the
    // handshake completion tick, or 0 on failure.
    auto handshake = [&](Tick start) -> Tick {
        if (breaker == Breaker::open) {
            if (start < breaker_until)
                return 0; // fail fast while cooling down
            // Half-open: one trial re-attestation.
            ++fs.breaker_probes;
            if ((mig_inj && mig_inj->shouldInject(
                                FaultSite::fleet_migration, start)) ||
                !reAttest(start)) {
                ++fs.migration_failures;
                ++fs.breaker_trips;
                breaker_until = start + cfg.breaker_cooldown;
                return 0;
            }
            breaker = Breaker::closed;
            consecutive_mig = 0;
            ++fs.breaker_readmits;
            return start + re_attest_cycles;
        }
        Tick t = start;
        for (std::uint32_t a = 1; a <= cfg.migration_retries + 1;
             ++a) {
            if ((!mig_inj || !mig_inj->shouldInject(
                                 FaultSite::fleet_migration, t)) &&
                reAttest(t)) {
                consecutive_mig = 0;
                return t + re_attest_cycles;
            }
            ++fs.migration_failures;
            if (cfg.breaker_threshold > 0 &&
                ++consecutive_mig >= cfg.breaker_threshold) {
                breaker = Breaker::open;
                breaker_until = t + cfg.breaker_cooldown;
                ++fs.breaker_trips;
                return 0;
            }
            t += cfg.migration_backoff << (a - 1);
        }
        return 0;
    };

    for (const Event &ev : events) {
        Node &node = nodes[ev.node];
        if (node.fault_site == FaultSite::soc_degrade) {
            // Cordon: the SoC drains its in-flight work (its own
            // outcomes stand) but accepts no migrants from here on.
            node.degraded = true;
            node.report.degraded = true;
            node.report.fault_tick = node.fault_tick;
            node.report.detected_tick = node.detect_tick;
            ++fs.degrades;
            continue;
        }

        // Crash or hang: evict. Completions at or before the fault
        // tick are causally valid; everything else is pending and
        // must fail over.
        node.dead = true;
        node.report.crashed =
            node.fault_site == FaultSite::soc_crash;
        node.report.hung = node.fault_site == FaultSite::soc_hang;
        node.report.fault_tick = node.fault_tick;
        node.report.detected_tick = node.detect_tick;
        ++fs.evictions;
        if (node.report.crashed)
            ++fs.crashes;
        else
            ++fs.hangs;

        const Tick cutoff = node.fault_tick;
        const std::uint32_t alive = [&] {
            std::uint32_t a = 0;
            for (const Node &m : nodes)
                a += m.dead ? 0 : 1;
            return a;
        }();
        const double alive_frac =
            static_cast<double>(alive) /
            static_cast<double>(cfg.num_socs);

        // Graceful degradation: when capacity drops below the shed
        // threshold, only the highest-priority migrating tenants
        // keep their failover; the rest shed with degraded status.
        std::set<std::uint32_t> keep;
        const bool shedding = alive_frac < cfg.shed_below_capacity;
        if (shedding) {
            std::vector<std::uint32_t> order(ntenants);
            std::iota(order.begin(), order.end(), 0u);
            std::sort(order.begin(), order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          if (tenants[a].priority !=
                              tenants[b].priority) {
                              return tenants[a].priority >
                                     tenants[b].priority;
                          }
                          return a < b;
                      });
            const auto nkeep = static_cast<std::uint32_t>(std::ceil(
                alive_frac * static_cast<double>(ntenants)));
            for (std::uint32_t i = 0; i < nkeep && i < ntenants; ++i)
                keep.insert(order[i]);
        }

        std::vector<NodeTenant> hosted = std::move(node.tenants);
        node.tenants.clear();
        std::set<std::uint32_t> reserve_targets;
        for (std::size_t slot = 0; slot < hosted.size(); ++slot) {
            const NodeTenant &nt = hosted[slot];
            const std::vector<RequestOutcome> &outs =
                node.last.tenants[slot].requests;

            NodeTenant pending;
            pending.fleet = nt.fleet;
            pending.migrated_in = true;
            std::uint64_t pending_reprefills = 0;
            for (std::size_t k = 0; k < outs.size(); ++k) {
                const RequestOutcome &o = outs[k];
                if (o.finished != 0 && o.finished <= cutoff) {
                    finalize(ev.node, nt, k, o);
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
                    ++pending_reprefills;
                pending.arrivals.push_back(nt.arrivals[k]);
                pending.instance.push_back(nt.instance[k]);
            }
            if (pending.arrivals.empty())
                continue;
            node.report.migrated_out += static_cast<std::uint32_t>(
                pending.arrivals.size());

            // Terminal paths for the pending set share this shape.
            auto fail_pending = [&](StatusCode code, Tick when) {
                for (std::size_t k = 0; k < pending.arrivals.size();
                     ++k) {
                    Led &led =
                        ledger[pending.fleet][pending.instance[k]];
                    led.final_ = true;
                    led.req.finished = when;
                    led.req.final = code;
                    led.req.soc = ev.node;
                    led.req.migrated = false;
                }
            };

            if (!cfg.failover) {
                fail_pending(StatusCode::fault_injected,
                             node.detect_tick);
                continue;
            }
            if (shedding && keep.find(pending.fleet) == keep.end()) {
                fs.shed +=
                    static_cast<double>(pending.arrivals.size());
                fail_pending(StatusCode::degraded, node.detect_tick);
                continue;
            }

            // Target: the least-loaded warm SoC (degraded SoCs are
            // cordoned; index breaks ties deterministically).
            std::int32_t target = -1;
            std::size_t best = 0;
            for (std::uint32_t m = 0; m < cfg.num_socs; ++m) {
                if (nodes[m].dead || nodes[m].degraded ||
                    m == ev.node) {
                    continue;
                }
                if (target < 0 || nodes[m].tenants.size() < best) {
                    target = static_cast<std::int32_t>(m);
                    best = nodes[m].tenants.size();
                }
            }
            if (target < 0) {
                fail_pending(StatusCode::fault_injected,
                             node.detect_tick);
                continue;
            }

            const Tick ok_at = handshake(node.detect_tick);
            if (ok_at == 0) {
                fail_pending(StatusCode::fault_injected,
                             node.detect_tick);
                continue;
            }
            const Tick ready = ok_at + cfg.resettle_cycles;
            fs.migration_cycles +=
                static_cast<double>(cfg.resettle_cycles);
            ++fs.migrations;
            // Mid-generation migrants re-run prefill on the target
            // (the KV cache died with the source SoC).
            fs.re_prefills +=
                static_cast<double>(pending_reprefills);

            for (std::size_t k = 0; k < pending.arrivals.size();
                 ++k) {
                pending.arrivals[k] =
                    std::max(pending.arrivals[k], ready);
                ledger[pending.fleet][pending.instance[k]]
                    .req.migrated = true;
            }
            Node &tgt = nodes[static_cast<std::uint32_t>(target)];
            tgt.report.migrated_in += static_cast<std::uint32_t>(
                pending.arrivals.size());
            tgt.tenants.push_back(std::move(pending));
            reserve_targets.insert(
                static_cast<std::uint32_t>(target));
        }

        // Re-serve every target immediately: migrated arrivals land
        // strictly after any already-finalized completion there, so
        // the re-serve refines rather than contradicts.
        for (std::uint32_t m : reserve_targets)
            serveNode(m, tenants);
    }

    // Window end: surviving SoCs' outcomes are final as-is.
    for (std::uint32_t n = 0; n < cfg.num_socs; ++n) {
        Node &node = nodes[n];
        node.report.tenants_end =
            node.dead ? 0
                      : static_cast<std::uint32_t>(
                            node.tenants.size());
        if (node.dead)
            continue;
        for (std::size_t slot = 0; slot < node.tenants.size();
             ++slot) {
            const NodeTenant &nt = node.tenants[slot];
            const std::vector<RequestOutcome> &outs =
                node.last.tenants[slot].requests;
            for (std::size_t k = 0; k < outs.size(); ++k) {
                if (ledger[nt.fleet][nt.instance[k]].final_)
                    continue;
                finalize(n, nt, k, outs[k]);
                if (outs[k].final == StatusCode::ok)
                    ++node.report.completed;
            }
        }
    }

    // Aggregate the ledger into the fleet stat family.
    for (std::uint32_t f = 0; f < ntenants; ++f) {
        const bool generates = tenants[f].spec.decode_tokens > 0;
        for (Led &led : ledger[f]) {
            ++fs.offered;
            if (!led.final_) {
                // A request can only miss finalization through a
                // controller bug; fail it loudly rather than lose it.
                led.final_ = true;
                led.req.final = StatusCode::internal;
            }
            switch (led.req.final) {
              case StatusCode::ok:
                ++fs.completed;
                fs.latency.sample(static_cast<double>(
                    led.req.finished - led.req.arrival));
                if (generates && led.prefill != 0) {
                    fs.ttft.sample(static_cast<double>(
                        led.prefill - led.req.arrival));
                }
                result.makespan =
                    std::max(result.makespan, led.req.finished);
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
        }
    }

    result.status = Status::ok();
    result.cycles = result.makespan;
    result.offered = static_cast<std::uint64_t>(fs.offered.value());
    result.completed =
        static_cast<std::uint64_t>(fs.completed.value());
    result.failed = static_cast<std::uint64_t>(fs.failed.value());
    result.rejected =
        static_cast<std::uint64_t>(fs.rejected.value());
    result.shed = static_cast<std::uint64_t>(fs.shed.value());
    result.availability =
        result.offered ? static_cast<double>(result.completed) /
                             static_cast<double>(result.offered)
                       : 0.0;
    result.evictions =
        static_cast<std::uint32_t>(fs.evictions.value());
    result.migrations =
        static_cast<std::uint32_t>(fs.migrations.value());
    result.migration_failures =
        static_cast<std::uint32_t>(fs.migration_failures.value());
    result.breaker_trips =
        static_cast<std::uint32_t>(fs.breaker_trips.value());
    result.breaker_probes =
        static_cast<std::uint32_t>(fs.breaker_probes.value());
    result.breaker_readmissions =
        static_cast<std::uint32_t>(fs.breaker_readmits.value());
    result.re_attests =
        static_cast<std::uint32_t>(fs.re_attests.value());
    result.re_prefills =
        static_cast<std::uint64_t>(fs.re_prefills.value());
    result.lost_tokens =
        static_cast<std::uint64_t>(fs.lost_tokens.value());
    result.migration_cycles =
        static_cast<Tick>(fs.migration_cycles.value());
    result.p50 = static_cast<Tick>(fs.latency.percentile(0.50));
    result.p95 = static_cast<Tick>(fs.latency.percentile(0.95));
    result.p99 = static_cast<Tick>(fs.latency.percentile(0.99));
    result.ttft_p50 = static_cast<Tick>(fs.ttft.percentile(0.50));
    result.ttft_p99 = static_cast<Tick>(fs.ttft.percentile(0.99));

    result.socs.reserve(cfg.num_socs);
    for (std::uint32_t n = 0; n < cfg.num_socs; ++n)
        result.socs.push_back(std::move(nodes[n].report));
    result.requests.resize(ntenants);
    for (std::uint32_t f = 0; f < ntenants; ++f) {
        result.requests[f].reserve(ledger[f].size());
        for (const Led &led : ledger[f])
            result.requests[f].push_back(led.req);
    }
    return result;
}

} // namespace snpu
