/**
 * @file
 * Measured-boot attestation: the quote protocol (MAC verification,
 * nonce replay, session-key agreement), the serving admission gate
 * it feeds (clean boot admits and pays the handshake, a tampered
 * boot stage is denied with StatusCode::verification_failed,
 * injected handshake timeouts retry), and the fleet controller's
 * re-attestation of migration targets.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/systems.hh"
#include "fleet/fleet_controller.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"
#include "tee/attestation.hh"
#include "tee/hmac.hh"
#include "tee/secure_boot.hh"
#include "workload/model_zoo.hh"

namespace snpu
{
namespace
{

NpuTask
smallTask(World world = World::secure)
{
    NpuTask task = NpuTask::fromModel(ModelId::mobilenet, world);
    task.model = task.model.scaled(64);
    return task;
}

std::vector<Tick>
everyN(Tick gap, std::uint32_t count, Tick start = 0)
{
    std::vector<Tick> arrivals(count);
    for (std::uint32_t i = 0; i < count; ++i)
        arrivals[i] = start + gap * i;
    return arrivals;
}

TenantSpec
tenant(const std::string &name, World world,
       std::vector<Tick> arrivals)
{
    TenantSpec spec;
    spec.name = name;
    spec.task = smallTask(world);
    spec.queue_capacity = 32;
    spec.arrivals = std::move(arrivals);
    return spec;
}

Digest
someMeasurement()
{
    Digest mr{};
    for (std::size_t i = 0; i < mr.size(); ++i)
        mr[i] = static_cast<std::uint8_t>(i * 3 + 1);
    return mr;
}

// --- quote protocol ------------------------------------------------

TEST(Attest, QuoteVerifiesAndDerivesSessionKey)
{
    const auto key = deriveAttestKey(monitorSealedKey());
    const Digest mr = someMeasurement();
    const AttestNonce nonce = attestNonceFromSeed(42);

    AttestVerifier verifier(key, mr);
    const Status st = verifier.verify(makeQuote(key, mr, nonce),
                                      nonce);
    ASSERT_TRUE(st.isOk()) << st.toString();
    // Both sides derive the same per-session key from the
    // handshake transcript.
    EXPECT_TRUE(digestEqual(verifier.sessionKey(),
                            attestSessionKey(key, mr, nonce)));
}

TEST(Attest, NonceReplayRejected)
{
    const auto key = deriveAttestKey(monitorSealedKey());
    const Digest mr = someMeasurement();
    AttestVerifier verifier(key, mr);

    const AttestNonce nonce = attestNonceFromSeed(7);
    ASSERT_TRUE(
        verifier.verify(makeQuote(key, mr, nonce), nonce).isOk());
    // Replaying the identical (valid!) quote must fail: the nonce
    // was consumed.
    const Status replay =
        verifier.verify(makeQuote(key, mr, nonce), nonce);
    EXPECT_FALSE(replay.isOk());
    EXPECT_EQ(replay.code(), StatusCode::verification_failed);
    // A fresh nonce still verifies afterwards.
    const AttestNonce fresh = attestNonceFromSeed(8);
    EXPECT_TRUE(
        verifier.verify(makeQuote(key, mr, fresh), fresh).isOk());
}

TEST(Attest, TamperedQuoteRejected)
{
    const auto key = deriveAttestKey(monitorSealedKey());
    const Digest mr = someMeasurement();
    const AttestNonce nonce = attestNonceFromSeed(9);
    AttestVerifier verifier(key, mr);

    // Flipped MAC bit.
    AttestQuote quote = makeQuote(key, mr, nonce);
    quote.mac[31] ^= 1;
    Status st = verifier.verify(quote, nonce);
    EXPECT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::verification_failed);

    // Wrong nonce echo (a quote signed for some other challenge).
    const AttestNonce other = attestNonceFromSeed(10);
    st = verifier.verify(makeQuote(key, mr, other), nonce);
    EXPECT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::verification_failed);

    // Honestly signed quote over a diverged measurement.
    Digest bad_mr = mr;
    bad_mr[0] ^= 1;
    const AttestNonce n2 = attestNonceFromSeed(11);
    st = verifier.verify(makeQuote(key, bad_mr, n2), n2);
    EXPECT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::verification_failed);
}

TEST(Attest, HandshakeCyclesScaleWithModelBytes)
{
    AttestTiming timing;
    const Tick bare = timing.handshakeCycles(0);
    EXPECT_GT(bare, 0u);
    EXPECT_GT(timing.handshakeCycles(1u << 20), bare);
}

// --- serving admission ---------------------------------------------

TEST(Attest, CleanBootAdmitsAndChargesHandshake)
{
    auto soc = buildSoc(SystemKind::snpu);
    ASSERT_TRUE(soc->bootReport().ok);

    ServerConfig cfg;
    cfg.num_cores = 2;
    cfg.attestation = true;
    cfg.record_requests = true;
    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve(
        {tenant("sec", World::secure, everyN(50'000, 4)),
         tenant("pub", World::normal, everyN(50'000, 4))});
    ASSERT_TRUE(res.ok()) << res.error();

    const TenantReport &sec = res.tenants[0];
    EXPECT_EQ(sec.completed, 4u);
    EXPECT_TRUE(sec.attested);
    EXPECT_EQ(sec.attest_handshakes, 1u);
    EXPECT_EQ(sec.attest_denied, 0u);
    EXPECT_GT(sec.attest_cycles, 0u);

    // Normal-world tenants never enter the handshake.
    const TenantReport &pub = res.tenants[1];
    EXPECT_EQ(pub.completed, 4u);
    EXPECT_FALSE(pub.attested);
    EXPECT_EQ(pub.attest_handshakes, 0u);
    EXPECT_EQ(pub.attest_cycles, 0u);

    EXPECT_EQ(res.attest_overhead, sec.attest_cycles);
}

TEST(Attest, CorruptBootDeniedAtAdmission)
{
    SocParams params = makeSystem(SystemKind::snpu);
    params.boot_corrupt_stage = "trusted-firmware";
    Soc soc(params);
    EXPECT_FALSE(soc.bootReport().ok);
    EXPECT_EQ(soc.bootReport().failed_stage, "trusted-firmware");

    ServerConfig cfg;
    cfg.num_cores = 2;
    cfg.attestation = true;
    cfg.record_requests = true;
    SnpuServer server(soc, cfg);
    ServeResult res = server.serve(
        {tenant("sec", World::secure, everyN(50'000, 4))});
    ASSERT_TRUE(res.ok()) << res.error();

    const TenantReport &rep = res.tenants[0];
    EXPECT_EQ(rep.completed, 0u);
    EXPECT_EQ(rep.rejected, 4u);
    EXPECT_EQ(rep.attest_denied, 4u);
    EXPECT_FALSE(rep.attested);
    EXPECT_EQ(rep.attest_cycles, 0u);
    ASSERT_EQ(rep.requests.size(), 4u);
    for (const RequestOutcome &o : rep.requests) {
        EXPECT_TRUE(o.rejected);
        EXPECT_EQ(o.final, StatusCode::verification_failed);
    }
}

TEST(Attest, AttestationOffIgnoresCorruptBoot)
{
    // Attestation is the enforcement point: with it off, the
    // tampered platform serves normally (and pays nothing), which
    // is exactly the gap the admission gate closes.
    SocParams params = makeSystem(SystemKind::snpu);
    params.boot_corrupt_stage = "teeos+npu-monitor";
    Soc soc(params);

    ServerConfig cfg;
    cfg.num_cores = 2;
    SnpuServer server(soc, cfg);
    ServeResult res = server.serve(
        {tenant("sec", World::secure, everyN(50'000, 4))});
    ASSERT_TRUE(res.ok()) << res.error();
    EXPECT_EQ(res.tenants[0].completed, 4u);
    EXPECT_EQ(res.attest_overhead, 0u);
}

TEST(Attest, InjectedHandshakeTimeoutRetriesThenEstablishes)
{
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg;
    cfg.num_cores = 2;
    cfg.attestation = true;
    cfg.max_retries = 2;
    cfg.fault_injection = true;
    FaultSpec spec;
    spec.site = FaultSite::attest;
    spec.trigger = FaultTrigger::nth;
    spec.nth = 1;
    spec.max_fires = 1;
    cfg.fault_plan.faults = {spec};
    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve(
        {tenant("sec", World::secure, everyN(50'000, 4))});
    ASSERT_TRUE(res.ok()) << res.error();

    // The first quote exchange timed out (injected); the retry
    // re-paid the handshake and established the session.
    const TenantReport &rep = res.tenants[0];
    EXPECT_EQ(rep.completed, 4u);
    EXPECT_TRUE(rep.attested);
    EXPECT_EQ(rep.attest_handshakes, 2u);
    EXPECT_GE(rep.retries, 1u);
    EXPECT_GE(rep.faults_observed, 1u);
}

TEST(Attest, ServeIsDeterministic)
{
    const auto run = [] {
        auto soc = buildSoc(SystemKind::snpu);
        ServerConfig cfg;
        cfg.num_cores = 2;
        cfg.attestation = true;
        cfg.latency_hist_max = 4.0e7;
        SnpuServer server(*soc, cfg);
        return server.serve(
            {tenant("a", World::secure, everyN(40'000, 6)),
             tenant("b", World::secure, everyN(55'000, 6))});
    };
    const ServeResult x = run();
    const ServeResult y = run();
    ASSERT_TRUE(x.ok() && y.ok());
    EXPECT_EQ(x.makespan, y.makespan);
    EXPECT_EQ(x.attest_overhead, y.attest_overhead);
    for (std::size_t t = 0; t < x.tenants.size(); ++t) {
        EXPECT_EQ(x.tenants[t].completed, y.tenants[t].completed);
        EXPECT_EQ(x.tenants[t].p99, y.tenants[t].p99);
        EXPECT_EQ(x.tenants[t].attest_cycles,
                  y.tenants[t].attest_cycles);
    }
}

// --- fleet re-attestation ------------------------------------------

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

/** First heartbeat tick a crash-only plan fires for SoC @p n. */
Tick
firstFire(double p, std::uint64_t fleet_seed, std::uint32_t n,
          Tick hb, Tick horizon)
{
    FaultPlan plan;
    plan.faults = {probSpec(FaultSite::soc_crash, p)};
    plan.seed = fleetSocSeed(fleet_seed, n);
    FaultInjector inj(plan);
    for (Tick t = hb; t <= horizon; t += hb) {
        if (inj.shouldInject(FaultSite::soc_crash, t))
            return t;
    }
    return 0;
}

TEST(Attest, FleetFailoverReattestsTarget)
{
    const Tick hb = 1'000;
    const Tick horizon = 300'000;
    const double p = 1.0 / 300.0;

    // Choreograph: SoC 0 dies while its tenant still has pending
    // work; SoC 1 survives to take the migrants.
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 200'000 && !seed; ++s) {
        const Tick f0 = firstFire(p, s, 0, hb, horizon);
        const Tick f1 = firstFire(p, s, 1, hb, horizon);
        if (f0 >= 30'000 && f0 <= 150'000 && f1 == 0)
            seed = s;
    }
    ASSERT_NE(seed, 0u) << "no seed kills only SoC 0";

    FleetConfig fc;
    fc.num_socs = 2;
    fc.soc = makeSystem(SystemKind::snpu);
    fc.server.num_cores = 2;
    fc.server.attestation = true;
    fc.server.latency_hist_max = 4.0e7;
    fc.heartbeat_interval = hb;
    fc.horizon = horizon;
    fc.fault_injection = true;
    fc.fault_plan.seed = seed;
    fc.fault_plan.faults = {probSpec(FaultSite::soc_crash, p)};

    std::vector<FleetTenantSpec> tenants(2);
    tenants[0].spec = tenant("t0", World::normal, everyN(20'000, 8));
    tenants[0].home = 0;
    tenants[1].spec = tenant("t1", World::normal, everyN(20'000, 8));
    tenants[1].home = 1;

    FleetController fleet(fc);
    FleetResult res = fleet.run(tenants);
    ASSERT_TRUE(res.ok()) << res.error();
    EXPECT_EQ(res.evictions, 1u);
    ASSERT_GE(res.migrations, 1u);
    // Every completed migration re-attested its target exactly once
    // (no attest faults armed, so first attempts succeed).
    EXPECT_EQ(res.re_attests, res.migrations);
    EXPECT_GT(res.migration_cycles, 0u);

    // Attestation off: the same choreography migrates without any
    // re-attestation.
    FleetConfig off = fc;
    off.server.attestation = false;
    FleetController off_fleet(off);
    FleetResult off_res = off_fleet.run(tenants);
    ASSERT_TRUE(off_res.ok()) << off_res.error();
    EXPECT_GE(off_res.migrations, 1u);
    EXPECT_EQ(off_res.re_attests, 0u);

    // A fleet booted from tampered firmware cannot pass the
    // pre-migration platform check: every handshake attempt fails
    // and no migration completes.
    FleetConfig bad = fc;
    bad.soc.boot_corrupt_stage = "teeos+npu-monitor";
    FleetController bad_fleet(bad);
    FleetResult bad_res = bad_fleet.run(tenants);
    ASSERT_TRUE(bad_res.ok()) << bad_res.error();
    EXPECT_EQ(bad_res.migrations, 0u);
    EXPECT_GT(bad_res.migration_failures, 0u);
    EXPECT_EQ(bad_res.re_attests, 0u);
    EXPECT_GT(bad_res.failed, 0u);
}

} // namespace
} // namespace snpu
