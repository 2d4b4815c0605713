/**
 * @file
 * Fault-tolerant fleet serving: kill-rate-0 parity with independent
 * SoCs, deterministic replay, mid-decode kill -> migration with KV
 * re-prefill accounting, the failover-off collapse baseline,
 * priority-ordered load shedding, degrade cordons, the fleet
 * migration breaker, the eviction ledger (tick-0 rejections stay
 * final, a failed pending set keeps its history), and the serve-layer
 * satellites (half-open tenant breaker, admission-queue deadlines,
 * retry jitter).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/systems.hh"
#include "fleet/fleet_controller.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/fault_injector.hh"
#include "sim/hashing.hh"
#include "sim/random.hh"
#include "workload/model_zoo.hh"

namespace snpu
{
namespace
{

/** "t<i>" without operator+ (GCC 12 -Wrestrict false positive). */
std::string
tname(std::uint32_t t)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "t%u", t);
    return buf;
}

NpuTask
smallTask(World world = World::normal)
{
    NpuTask task = NpuTask::fromModel(ModelId::mobilenet, world);
    task.model = task.model.scaled(64);
    return task;
}

FaultSpec
probSpec(FaultSite site, double p)
{
    FaultSpec spec;
    spec.site = site;
    spec.trigger = FaultTrigger::probability;
    spec.probability = p;
    spec.max_fires = 0;
    return spec;
}

/**
 * Replay the controller's open-loop schedule draw for SoC @p n of a
 * crash-only plan: first probe tick at which the site fires, or 0.
 * Tests scan fleet seeds with this to choreograph which SoC dies
 * (and when) without giving the controller any per-SoC plan knob.
 */
Tick
firstFire(FaultSite site, double p, std::uint64_t fleet_seed,
          std::uint32_t n, Tick hb, Tick horizon)
{
    FaultPlan plan;
    plan.faults = {probSpec(site, p)};
    plan.seed = fleetSocSeed(fleet_seed, n);
    FaultInjector inj(plan);
    for (Tick t = hb; t <= horizon; t += hb) {
        if (inj.shouldInject(site, t))
            return t;
    }
    return 0;
}

/** Serialize a fleet request for exact-replay comparisons. */
std::string
reqKey(const FleetRequest &r)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "a%llu f%llu s%d n%u m%d;",
                  static_cast<unsigned long long>(r.arrival),
                  static_cast<unsigned long long>(r.finished),
                  static_cast<int>(r.final), r.soc,
                  r.migrated ? 1 : 0);
    return buf;
}

std::string
ledgerKey(const FleetResult &res)
{
    std::string out;
    for (const auto &tenant : res.requests)
        for (const FleetRequest &r : tenant)
            out += reqKey(r);
    return out;
}

FleetConfig
baseConfig(std::uint32_t socs)
{
    FleetConfig fc;
    fc.num_socs = socs;
    fc.soc = makeSystem(SystemKind::snpu);
    fc.server.num_cores = 2;
    fc.heartbeat_interval = 10'000;
    fc.heartbeat_misses = 3;
    fc.hang_detect_factor = 4;
    fc.migration_backoff = 1'000;
    fc.resettle_cycles = 500;
    fc.breaker_cooldown = 50'000;
    return fc;
}

FleetTenantSpec
plainTenant(const std::string &name, std::uint32_t home,
            std::vector<Tick> arrivals, std::int32_t priority = 0,
            World world = World::normal)
{
    FleetTenantSpec ft;
    ft.spec.name = name;
    ft.spec.task = smallTask(world);
    // Roomy queues: migration dumps a tenant's whole pending set on
    // the target at once, and these tests assert on failover
    // outcomes, not admission pressure.
    ft.spec.queue_capacity = 32;
    ft.spec.arrivals = std::move(arrivals);
    ft.home = home;
    ft.priority = priority;
    return ft;
}

std::vector<Tick>
everyN(Tick gap, std::uint32_t count, Tick start = 0)
{
    std::vector<Tick> arrivals(count);
    for (std::uint32_t i = 0; i < count; ++i)
        arrivals[i] = start + gap * i;
    return arrivals;
}

/**
 * Kill rate 0: the fleet must serve exactly like N fully
 * independent single-SoC servers — same per-request outcomes, no
 * fleet-only events.
 */
TEST(Fleet, KillRateZeroMatchesIndependentSocs)
{
    constexpr std::uint32_t socs = 3;
    std::vector<FleetTenantSpec> tenants;
    for (std::uint32_t t = 0; t < socs; ++t) {
        Rng rng(hashMix(std::uint64_t{7}, std::uint64_t(t)));
        tenants.push_back(plainTenant(
            tname(t), t,
            burstyArrivals(rng, 150'000.0, 4.0, 3.0, 6),
            static_cast<std::int32_t>(t),
            t == 0 ? World::secure : World::normal));
    }

    FleetConfig fc = baseConfig(socs);
    FleetController fleet(fc);
    FleetResult res = fleet.run(tenants);
    ASSERT_TRUE(res.ok()) << res.error();
    EXPECT_EQ(res.evictions, 0u);
    EXPECT_EQ(res.migrations, 0u);
    EXPECT_EQ(res.shed, 0u);
    EXPECT_EQ(res.offered, std::uint64_t{socs} * 6u);
    EXPECT_DOUBLE_EQ(res.availability, 1.0);

    for (std::uint32_t n = 0; n < socs; ++n) {
        auto soc = buildSoc(SystemKind::snpu);
        ServerConfig sc = fc.server;
        sc.record_requests = true;
        sc.jitter_seed = fleetSocSeed(fc.server.jitter_seed, n);
        SnpuServer server(*soc, sc);
        ServeResult solo = server.serve({tenants[n].spec});
        ASSERT_TRUE(solo.ok()) << solo.error();

        // Multiset compare: the fleet ledger is in arrival order,
        // solo records are in completion order.
        std::vector<std::string> fleet_reqs, solo_reqs;
        for (const FleetRequest &r : res.requests[n]) {
            EXPECT_EQ(r.soc, n);
            EXPECT_FALSE(r.migrated);
            char buf[64];
            std::snprintf(buf, sizeof(buf), "a%llu f%llu s%d",
                          static_cast<unsigned long long>(r.arrival),
                          static_cast<unsigned long long>(
                              r.finished),
                          static_cast<int>(r.final));
            fleet_reqs.push_back(buf);
        }
        for (const RequestOutcome &o : solo.tenants[0].requests) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "a%llu f%llu s%d",
                          static_cast<unsigned long long>(o.arrival),
                          static_cast<unsigned long long>(
                              o.finished),
                          static_cast<int>(o.final));
            solo_reqs.push_back(buf);
        }
        std::sort(fleet_reqs.begin(), fleet_reqs.end());
        std::sort(solo_reqs.begin(), solo_reqs.end());
        EXPECT_EQ(fleet_reqs, solo_reqs) << "SoC " << n;
    }
}

/** The same killing configuration replays bit-for-bit. */
TEST(Fleet, RunIsDeterministic)
{
    const auto build = [] {
        std::vector<FleetTenantSpec> tenants;
        for (std::uint32_t t = 0; t < 4; ++t) {
            tenants.push_back(plainTenant(
                tname(t), t, everyN(60'000, 8),
                static_cast<std::int32_t>(t)));
        }
        FleetConfig fc = baseConfig(4);
        fc.fault_injection = true;
        fc.horizon = 400'000;
        fc.fault_plan.seed = 33;
        fc.fault_plan.faults = {
            probSpec(FaultSite::soc_crash, 0.05),
            probSpec(FaultSite::soc_hang, 0.01),
            probSpec(FaultSite::soc_degrade, 0.01),
            probSpec(FaultSite::fleet_migration, 0.2)};
        return std::make_pair(fc, tenants);
    };

    auto [fc1, tenants1] = build();
    FleetController a(fc1);
    FleetResult ra = a.run(tenants1);
    ASSERT_TRUE(ra.ok()) << ra.error();

    auto [fc2, tenants2] = build();
    FleetController b(fc2);
    FleetResult rb = b.run(tenants2);
    ASSERT_TRUE(rb.ok()) << rb.error();

    EXPECT_EQ(ledgerKey(ra), ledgerKey(rb));
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.failed, rb.failed);
    EXPECT_EQ(ra.evictions, rb.evictions);
    EXPECT_EQ(ra.migrations, rb.migrations);
    EXPECT_EQ(ra.migration_failures, rb.migration_failures);
    EXPECT_EQ(ra.re_prefills, rb.re_prefills);
    EXPECT_EQ(ra.lost_tokens, rb.lost_tokens);
    EXPECT_EQ(ra.p99, rb.p99);
    EXPECT_EQ(ra.makespan, rb.makespan);
}

/**
 * Kill a SoC mid-generation: the decode tenant's pending requests
 * migrate to the warm SoC, pay the secure-session resettle, re-run
 * prefill (the KV cache died with the source), and still complete.
 */
TEST(Fleet, MidDecodeKillMigratesAndReprefills)
{
    // Learn the decode timeline on a solo SoC first.
    TenantSpec dec;
    dec.name = "gen";
    dec.task = smallTask(World::normal);
    dec.task.name = "gen";
    dec.decode_tokens = 16;
    dec.decoder = makeDecoder(DecoderId::tinygpt);
    dec.arrivals = everyN(50'000, 4);

    auto probe_soc = buildSoc(SystemKind::snpu);
    ServerConfig probe_cfg;
    probe_cfg.num_cores = 2;
    probe_cfg.record_requests = true;
    probe_cfg.jitter_seed = fleetSocSeed(ServerConfig{}.jitter_seed, 0);
    SnpuServer probe(*probe_soc, probe_cfg);
    ServeResult solo = probe.serve({dec});
    ASSERT_TRUE(solo.ok()) << solo.error();
    const RequestOutcome *mid = nullptr;
    for (const RequestOutcome &o : solo.tenants[0].requests) {
        if (o.final == StatusCode::ok && o.prefill_done != 0 &&
            o.token_ticks.size() >= 4) {
            mid = &o;
            break;
        }
    }
    ASSERT_NE(mid, nullptr) << "no mid-generation request to kill";

    // Kill strictly inside this request's decode phase: after its
    // second token, before its last.
    const Tick lo = mid->token_ticks[1] + 1;
    const Tick hi = mid->token_ticks.back() - 1;
    ASSERT_LT(lo, hi);

    const Tick hb = 1'000;
    const Tick horizon = hi;
    const double p =
        1.0 / static_cast<double>(horizon / hb ? horizon / hb : 1);
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 200'000 && !seed; ++s) {
        const Tick f0 = firstFire(FaultSite::soc_crash, p, s, 0, hb,
                                  horizon);
        const Tick f1 = firstFire(FaultSite::soc_crash, p, s, 1, hb,
                                  horizon);
        if (f0 >= lo && f0 <= hi && f1 == 0)
            seed = s;
    }
    ASSERT_NE(seed, 0u) << "no seed kills SoC 0 mid-decode";

    FleetConfig fc = baseConfig(2);
    fc.heartbeat_interval = hb;
    fc.fault_injection = true;
    fc.horizon = horizon;
    fc.fault_plan.seed = seed;
    fc.fault_plan.faults = {probSpec(FaultSite::soc_crash, p)};

    std::vector<FleetTenantSpec> tenants;
    FleetTenantSpec gen;
    gen.spec = dec;
    gen.home = 0;
    gen.priority = 1;
    tenants.push_back(gen);
    tenants.push_back(
        plainTenant("side", 1, everyN(100'000, 4), 0));

    FleetController fleet(fc);
    FleetResult res = fleet.run(tenants);
    ASSERT_TRUE(res.ok()) << res.error();

    EXPECT_EQ(res.evictions, 1u);
    EXPECT_TRUE(res.socs[0].crashed);
    EXPECT_EQ(res.migrations, 1u);
    EXPECT_GE(res.socs[0].migrated_out, 1u);
    EXPECT_GE(res.socs[1].migrated_in, 1u);
    // The killed mid-generation request lost its tokens and re-ran
    // prefill on the target.
    EXPECT_GE(res.re_prefills, 1u);
    EXPECT_GE(res.lost_tokens, 2u);
    EXPECT_GT(res.migration_cycles, 0u);
    // Failover is lossless here: everything completes.
    EXPECT_EQ(res.completed, res.offered);
    EXPECT_DOUBLE_EQ(res.availability, 1.0);
    bool any_migrated = false;
    for (const FleetRequest &r : res.requests[0]) {
        EXPECT_EQ(r.final, StatusCode::ok);
        if (r.migrated) {
            any_migrated = true;
            EXPECT_EQ(r.soc, 1u);
        }
    }
    EXPECT_TRUE(any_migrated);

    // Collapse baseline: the identical schedule with failover off
    // fails every pending request at the detection tick.
    FleetConfig off_cfg = fc;
    off_cfg.failover = false;
    FleetController off(off_cfg);
    FleetResult off_res = off.run(tenants);
    ASSERT_TRUE(off_res.ok()) << off_res.error();
    EXPECT_EQ(off_res.evictions, 1u);
    EXPECT_EQ(off_res.migrations, 0u);
    EXPECT_EQ(off_res.re_prefills, 0u);
    EXPECT_GT(off_res.failed, 0u);
    EXPECT_LT(off_res.completed, res.completed);
    bool any_failed = false;
    for (const FleetRequest &r : off_res.requests[0]) {
        if (r.final == StatusCode::fault_injected) {
            any_failed = true;
            EXPECT_EQ(r.finished, res.socs[0].detected_tick);
        }
    }
    EXPECT_TRUE(any_failed);
}

/**
 * Graceful degradation sheds strictly by priority: when capacity
 * drops below the threshold, the low-priority migrant is shed with
 * StatusCode::degraded while a high-priority migrant in the same
 * spot keeps its failover.
 */
TEST(Fleet, ShedRespectsPriority)
{
    const Tick hb = 10'000;
    const Tick horizon = 400'000;
    const double p = 0.05;
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 200'000 && !seed; ++s) {
        const Tick f0 = firstFire(FaultSite::soc_crash, p, s, 0, hb,
                                  horizon);
        const Tick f1 = firstFire(FaultSite::soc_crash, p, s, 1, hb,
                                  horizon);
        if (f0 >= 100'000 && f0 <= 300'000 && f1 == 0)
            seed = s;
    }
    ASSERT_NE(seed, 0u);

    const auto run = [&](std::int32_t victim_priority,
                         std::int32_t survivor_priority) {
        FleetConfig fc = baseConfig(2);
        fc.heartbeat_interval = hb;
        fc.fault_injection = true;
        fc.horizon = horizon;
        fc.fault_plan.seed = seed;
        fc.fault_plan.faults = {probSpec(FaultSite::soc_crash, p)};
        // Any capacity loss triggers shedding; with 2 tenants the
        // keep set is ceil(0.5 * 2) = 1, the higher priority.
        fc.shed_below_capacity = 1.0;
        std::vector<FleetTenantSpec> tenants;
        tenants.push_back(plainTenant("victim", 0,
                                      everyN(40'000, 10),
                                      victim_priority));
        tenants.push_back(plainTenant("survivor", 1,
                                      everyN(40'000, 10),
                                      survivor_priority));
        FleetController fleet(fc);
        return fleet.run(tenants);
    };

    // Low-priority tenant on the dying SoC: shed, not migrated.
    FleetResult low = run(1, 10);
    ASSERT_TRUE(low.ok()) << low.error();
    EXPECT_EQ(low.evictions, 1u);
    EXPECT_GT(low.shed, 0u);
    EXPECT_EQ(low.migrations, 0u);
    bool any_degraded = false;
    for (const FleetRequest &r : low.requests[0])
        any_degraded |= r.final == StatusCode::degraded;
    EXPECT_TRUE(any_degraded);
    for (const FleetRequest &r : low.requests[1])
        EXPECT_EQ(r.final, StatusCode::ok);

    // High-priority tenant in the same spot: kept, migrated.
    FleetResult high = run(10, 1);
    ASSERT_TRUE(high.ok()) << high.error();
    EXPECT_EQ(high.evictions, 1u);
    EXPECT_EQ(high.shed, 0u);
    EXPECT_EQ(high.migrations, 1u);
    for (const FleetRequest &r : high.requests[0])
        EXPECT_EQ(r.final, StatusCode::ok);
}

/**
 * A degraded SoC cordons: it drains its own work to completion but
 * is never evicted and never receives migrants.
 */
TEST(Fleet, DegradeCordonsWithoutEviction)
{
    const Tick hb = 10'000;
    const Tick horizon = 300'000;
    const double p = 0.05;
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 200'000 && !seed; ++s) {
        const Tick f0 = firstFire(FaultSite::soc_degrade, p, s, 0,
                                  hb, horizon);
        const Tick f1 = firstFire(FaultSite::soc_degrade, p, s, 1,
                                  hb, horizon);
        if (f0 != 0 && f1 == 0)
            seed = s;
    }
    ASSERT_NE(seed, 0u);

    FleetConfig fc = baseConfig(2);
    fc.heartbeat_interval = hb;
    fc.fault_injection = true;
    fc.horizon = horizon;
    fc.fault_plan.seed = seed;
    fc.fault_plan.faults = {probSpec(FaultSite::soc_degrade, p)};

    std::vector<FleetTenantSpec> tenants;
    tenants.push_back(plainTenant("t0", 0, everyN(50'000, 6), 1));
    tenants.push_back(plainTenant("t1", 1, everyN(50'000, 6), 0));
    FleetController fleet(fc);
    FleetResult res = fleet.run(tenants);
    ASSERT_TRUE(res.ok()) << res.error();

    EXPECT_EQ(res.evictions, 0u);
    EXPECT_EQ(res.migrations, 0u);
    EXPECT_TRUE(res.socs[0].degraded);
    EXPECT_FALSE(res.socs[0].crashed);
    EXPECT_EQ(res.socs[0].migrated_out, 0u);
    EXPECT_EQ(res.socs[0].migrated_in, 0u);
    EXPECT_EQ(res.completed, res.offered);
    EXPECT_DOUBLE_EQ(res.availability, 1.0);
}

/**
 * Repeated migration-handshake failures trip the fleet breaker;
 * the next eviction after the cool-down gets exactly one half-open
 * trial, which re-trips while the handshake path stays down.
 */
TEST(Fleet, MigrationBreakerTripsAndProbesHalfOpen)
{
    const Tick hb = 10'000;
    const Tick horizon = 600'000;
    const double p = 0.05;
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 500'000 && !seed; ++s) {
        const Tick f0 = firstFire(FaultSite::soc_crash, p, s, 0, hb,
                                  horizon);
        const Tick f1 = firstFire(FaultSite::soc_crash, p, s, 1, hb,
                                  horizon);
        const Tick f2 = firstFire(FaultSite::soc_crash, p, s, 2, hb,
                                  horizon);
        if (f0 != 0 && f1 >= f0 + 8 * hb && f2 == 0)
            seed = s;
    }
    ASSERT_NE(seed, 0u);

    FleetConfig fc = baseConfig(3);
    fc.heartbeat_interval = hb;
    fc.fault_injection = true;
    fc.horizon = horizon;
    fc.fault_plan.seed = seed;
    // Crash schedule as choreographed; every handshake attempt
    // fails (probability 1), so migration never succeeds.
    fc.fault_plan.faults = {
        probSpec(FaultSite::soc_crash, p),
        probSpec(FaultSite::fleet_migration, 1.0)};
    fc.migration_retries = 3;
    fc.breaker_threshold = 2;
    fc.breaker_cooldown = 1;

    std::vector<FleetTenantSpec> tenants;
    for (std::uint32_t t = 0; t < 3; ++t) {
        tenants.push_back(plainTenant(
            tname(t), t, everyN(30'000, 24),
            static_cast<std::int32_t>(t)));
    }
    FleetController fleet(fc);
    FleetResult res = fleet.run(tenants);
    ASSERT_TRUE(res.ok()) << res.error();

    EXPECT_EQ(res.evictions, 2u);
    EXPECT_EQ(res.migrations, 0u);
    // First eviction: threshold consecutive failures trip the
    // breaker. Second eviction (after the 1-cycle cool-down): one
    // half-open trial, which fails and re-trips.
    EXPECT_GE(res.breaker_trips, 2u);
    EXPECT_GE(res.breaker_probes, 1u);
    EXPECT_EQ(res.breaker_readmissions, 0u);
    EXPECT_GE(res.migration_failures, 3u);
    EXPECT_GT(res.failed, 0u);
}

/**
 * A request rejected at admission on tick 0 terminated before the
 * fault like every later rejection: eviction keeps it final on its
 * home SoC instead of migrating it as pending.
 */
TEST(Fleet, EvictionKeepsTickZeroRejectionFinal)
{
    const Tick hb = 10'000;
    const Tick horizon = 300'000;
    const double p = 0.05;
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 200'000 && !seed; ++s) {
        const Tick f0 = firstFire(FaultSite::soc_crash, p, s, 0, hb,
                                  horizon);
        const Tick f1 = firstFire(FaultSite::soc_crash, p, s, 1, hb,
                                  horizon);
        if (f0 >= 160'000 && f0 < 200'000 && f1 == 0)
            seed = s;
    }
    ASSERT_NE(seed, 0u);

    FleetConfig fc = baseConfig(2);
    fc.heartbeat_interval = hb;
    fc.fault_injection = true;
    fc.horizon = horizon;
    fc.fault_plan.seed = seed;
    fc.fault_plan.faults = {probSpec(FaultSite::soc_crash, p)};

    // No queue: every t0 arrival is rejected at admission.
    FleetTenantSpec t0 = plainTenant("t0", 0, everyN(40'000, 8));
    t0.spec.queue_capacity = 0;
    std::vector<FleetTenantSpec> tenants = {
        t0, plainTenant("t1", 1, everyN(40'000, 8))};
    FleetController fleet(fc);
    FleetResult res = fleet.run(tenants);
    ASSERT_TRUE(res.ok()) << res.error();
    ASSERT_EQ(res.evictions, 1u);
    ASSERT_TRUE(res.socs[0].crashed);

    std::uint32_t before_fault = 0;
    for (const FleetRequest &r : res.requests[0]) {
        EXPECT_EQ(r.final, StatusCode::resource_exhausted);
        if (r.arrival > res.socs[0].fault_tick)
            continue;
        ++before_fault;
        EXPECT_EQ(r.soc, 0u) << "arrival " << r.arrival;
        EXPECT_FALSE(r.migrated) << "arrival " << r.arrival;
        EXPECT_EQ(r.finished, r.arrival);
    }
    EXPECT_EQ(before_fault, 5u);
}

/**
 * A pending set that fails on a second eviction keeps its ledger
 * straight: requests that already moved stay flagged as migrated,
 * and none ends before it arrived.
 */
TEST(Fleet, FailedPendingKeepsMigrationAndCausality)
{
    const Tick hb = 10'000;
    const Tick horizon = 400'000;
    const double p = 0.05;
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 200'000 && !seed; ++s) {
        const Tick f0 = firstFire(FaultSite::soc_crash, p, s, 0, hb,
                                  horizon);
        const Tick f1 = firstFire(FaultSite::soc_crash, p, s, 1, hb,
                                  horizon);
        if (f0 >= 60'000 && f0 <= 150'000 && f1 >= f0 + 80'000 &&
            f1 + 3 * hb < 340'000)
            seed = s;
    }
    ASSERT_NE(seed, 0u);

    FleetConfig fc = baseConfig(2);
    fc.heartbeat_interval = hb;
    fc.fault_injection = true;
    fc.horizon = horizon;
    fc.fault_plan.seed = seed;
    fc.fault_plan.faults = {probSpec(FaultSite::soc_crash, p)};
    // No shedding: the second eviction fails its pending work for
    // want of a target.
    fc.shed_below_capacity = 0.0;

    std::vector<FleetTenantSpec> tenants = {
        plainTenant("t0", 0, everyN(20'000, 20)),
        plainTenant("t1", 1, everyN(100'000, 4))};
    FleetController fleet(fc);
    FleetResult res = fleet.run(tenants);
    ASSERT_TRUE(res.ok()) << res.error();
    ASSERT_EQ(res.evictions, 2u);
    ASSERT_GE(res.migrations, 1u);

    bool failed_after_detect = false;
    for (const FleetRequest &r : res.requests[0]) {
        EXPECT_GE(r.finished, r.arrival) << "arrival " << r.arrival;
        if (r.soc == 1) {
            EXPECT_TRUE(r.migrated) << "arrival " << r.arrival;
        }
        failed_after_detect |= r.final == StatusCode::fault_injected &&
                               r.arrival > res.socs[1].detected_tick;
    }
    EXPECT_TRUE(failed_after_detect);
}

/**
 * Tenant-level half-open breaker: a tenant quarantined by repeated
 * verification faults is re-admitted through a successful half-open
 * trial once the cool-down elapses and the fault clears.
 */
TEST(Fleet, HalfOpenTenantBreakerReadmitsAfterCooldown)
{
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg;
    cfg.num_cores = 2;
    cfg.fault_injection = true;
    cfg.quarantine_threshold = 3;
    cfg.quarantine_cooldown = 1'000'000;
    cfg.record_requests = true;
    // Every monitor verification inside the window fails; the
    // window closes long before the late arrivals.
    FaultSpec spec = probSpec(FaultSite::monitor_verify, 1.0);
    spec.trigger = FaultTrigger::tick_window;
    spec.window_begin = 0;
    spec.window_end = 2'000'000;
    cfg.fault_plan.faults = {spec};

    TenantSpec tenant;
    tenant.name = "sec";
    tenant.task = smallTask(World::secure);
    tenant.arrivals = {0,         60'000,    120'000,
                       5'000'000, 8'000'000, 9'000'000};

    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve({tenant});
    ASSERT_TRUE(res.ok()) << res.error();
    const TenantReport &rep = res.tenants[0];

    // Three in-window failures trip the breaker; the 5M arrival is
    // past the cool-down and becomes the half-open trial, which
    // succeeds (the fault window is over) and closes the breaker.
    EXPECT_EQ(rep.failed, 3u);
    EXPECT_EQ(rep.completed, 3u);
    EXPECT_EQ(rep.breaker_trips, 1u);
    EXPECT_EQ(rep.breaker_probes, 1u);
    EXPECT_EQ(rep.breaker_readmissions, 1u);
    EXPECT_FALSE(rep.quarantined);

    // Legacy contract: without a cool-down the breaker never
    // half-opens and the tenant stays quarantined.
    auto soc2 = buildSoc(SystemKind::snpu);
    ServerConfig forever = cfg;
    forever.quarantine_cooldown = 0;
    SnpuServer server2(*soc2, forever);
    ServeResult res2 = server2.serve({tenant});
    ASSERT_TRUE(res2.ok()) << res2.error();
    const TenantReport &rep2 = res2.tenants[0];
    EXPECT_TRUE(rep2.quarantined);
    EXPECT_EQ(rep2.completed, 0u);
    EXPECT_EQ(rep2.breaker_probes, 0u);
    EXPECT_EQ(rep2.breaker_readmissions, 0u);
    EXPECT_EQ(rep2.failed + rep2.rejected, 6u);
}

/**
 * Admission-queue deadline: requests whose queue wait exceeds the
 * deadline fail with StatusCode::timeout instead of serving stale.
 */
TEST(Fleet, QueueDeadlineTimesOutStaleRequests)
{
    const auto serve = [](Tick deadline) {
        auto soc = buildSoc(SystemKind::snpu);
        ServerConfig cfg;
        cfg.num_cores = 1;
        cfg.queue_deadline = deadline;
        cfg.record_requests = true;
        TenantSpec tenant;
        tenant.name = "q";
        tenant.task = smallTask();
        tenant.arrivals = {0, 0, 0, 0};
        SnpuServer server(*soc, cfg);
        return server.serve({tenant});
    };

    ServeResult no_deadline = serve(0);
    ASSERT_TRUE(no_deadline.ok()) << no_deadline.error();
    EXPECT_EQ(no_deadline.tenants[0].completed, 4u);
    EXPECT_EQ(no_deadline.tenants[0].timeouts, 0u);

    // Four simultaneous arrivals on one tile: anything that waits
    // longer than a sliver of a service time times out in queue.
    ServeResult tight = serve(1'000);
    ASSERT_TRUE(tight.ok()) << tight.error();
    const TenantReport &rep = tight.tenants[0];
    EXPECT_GE(rep.timeouts, 2u);
    EXPECT_GE(rep.completed, 1u);
    EXPECT_EQ(rep.completed + rep.timeouts, 4u);
    bool any_timeout_code = false;
    for (const RequestOutcome &o : rep.requests)
        any_timeout_code |= o.final == StatusCode::timeout;
    EXPECT_TRUE(any_timeout_code);

    // Per-tenant override beats the server default.
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg;
    cfg.num_cores = 1;
    cfg.queue_deadline = 1'000;
    TenantSpec tenant;
    tenant.name = "q";
    tenant.task = smallTask();
    tenant.arrivals = {0, 0, 0, 0};
    tenant.queue_deadline = 1'000'000'000;
    SnpuServer server(*soc, cfg);
    ServeResult wide = server.serve({tenant});
    ASSERT_TRUE(wide.ok()) << wide.error();
    EXPECT_EQ(wide.tenants[0].completed, 4u);
    EXPECT_EQ(wide.tenants[0].timeouts, 0u);
}

/**
 * Seeded retry jitter: decorrelated backoff stays a pure function
 * of the jitter seed, so a jittered schedule replays bit-for-bit.
 */
TEST(Fleet, RetryJitterIsDeterministic)
{
    const auto serve = [](std::uint64_t jitter_seed) {
        auto soc = buildSoc(SystemKind::snpu);
        ServerConfig cfg;
        cfg.num_cores = 2;
        cfg.fault_injection = true;
        cfg.max_retries = 3;
        cfg.retry_backoff = 500;
        cfg.retry_jitter = true;
        cfg.jitter_seed = jitter_seed;
        cfg.record_requests = true;
        // Transient DMA faults: every retry path gets exercised.
        FaultSpec spec = probSpec(FaultSite::dma_transfer, 0.3);
        cfg.fault_plan.faults = {spec};
        TenantSpec tenant;
        tenant.name = "jit";
        tenant.task = smallTask();
        Rng rng(11);
        tenant.arrivals = poissonArrivals(rng, 150'000.0, 8);
        SnpuServer server(*soc, cfg);
        return server.serve({tenant});
    };

    ServeResult a = serve(42);
    ServeResult b = serve(42);
    ASSERT_TRUE(a.ok()) << a.error();
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_GT(a.tenants[0].retries, 0u);
    EXPECT_EQ(a.tenants[0].retries, b.tenants[0].retries);
    EXPECT_EQ(a.tenants[0].completed, b.tenants[0].completed);
    ASSERT_EQ(a.tenants[0].requests.size(),
              b.tenants[0].requests.size());
    for (std::size_t i = 0; i < a.tenants[0].requests.size(); ++i) {
        EXPECT_EQ(a.tenants[0].requests[i].finished,
                  b.tenants[0].requests[i].finished);
    }
}

} // namespace
} // namespace snpu
