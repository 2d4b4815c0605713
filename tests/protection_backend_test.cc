/**
 * @file
 * Tests for the pluggable ProtectionBackend seam: the factory
 * registry, the SoC's backend assembly, canonical stats parity
 * across backends, the crypto engine's counter-cache/MAC timing,
 * and the DMA engine's controller contract.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/soc.hh"
#include "core/task_runner.hh"
#include "dma/crypto_backend.hh"
#include "dma/dma_engine.hh"
#include "dma/protection_registry.hh"
#include "mem/phys_mem.hh"
#include "sim/logging.hh"
#include "workload/model_zoo.hh"

namespace snpu
{
namespace
{

// ---------------------------------------------------------------- //
// Registry                                                         //
// ---------------------------------------------------------------- //

TEST(ProtectionRegistry_, BuiltinsRegistered)
{
    ProtectionRegistry &reg = ProtectionRegistry::global();
    for (const char *name :
         {"passthrough", "iommu", "guarder", "crypto"}) {
        EXPECT_TRUE(reg.known(name)) << name;
    }
    EXPECT_FALSE(reg.known("mpu"));

    const auto names = reg.names();
    ASSERT_EQ(names.size(), 4u);
    // Registration order is stable: error messages and CI loops
    // enumerate deterministically.
    EXPECT_EQ(names[0], "passthrough");
    EXPECT_EQ(names[1], "iommu");
    EXPECT_EQ(names[2], "guarder");
    EXPECT_EQ(names[3], "crypto");

    EXPECT_TRUE(reg.needsPageTable("iommu"));
    EXPECT_FALSE(reg.needsPageTable("guarder"));
    EXPECT_FALSE(reg.needsPageTable("crypto"));
    EXPECT_FALSE(reg.needsPageTable("passthrough"));
}

TEST(ProtectionRegistry_, UnknownNameFatalListsRegistered)
{
    stats::Group g("g");
    MemSystem mem(g);
    SocParams params = makeSystem(SystemKind::normal_npu);
    ProtectionBuildContext ctx{g, params, mem, nullptr, 0};
    try {
        ProtectionRegistry::global().build("not-a-backend", ctx);
        FAIL() << "unknown backend name should be fatal";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("not-a-backend"), std::string::npos);
        // The error lists every registered name.
        EXPECT_NE(msg.find("passthrough"), std::string::npos);
        EXPECT_NE(msg.find("iommu"), std::string::npos);
        EXPECT_NE(msg.find("guarder"), std::string::npos);
        EXPECT_NE(msg.find("crypto"), std::string::npos);
    }
}

TEST(ProtectionRegistry_, CustomRegistrationBuilds)
{
    ProtectionRegistry reg;
    reg.add("passthrough", false,
            [](const ProtectionBuildContext &bctx) {
                return std::make_unique<PassThroughControl>(
                    &bctx.stats);
            });
    EXPECT_TRUE(reg.known("passthrough"));
    EXPECT_EQ(reg.namesJoined(), "passthrough");

    stats::Group g("g");
    MemSystem mem(g);
    SocParams params = makeSystem(SystemKind::normal_npu);
    ProtectionBuildContext ctx{g, params, mem, nullptr, 0};
    auto backend = reg.build("passthrough", ctx);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->name(), "passthrough");

    // Re-using a name is fatal.
    EXPECT_THROW(
        reg.add("passthrough", false,
                [](const ProtectionBuildContext &bctx) {
                    return std::make_unique<PassThroughControl>(
                        &bctx.stats);
                }),
        FatalError);
}

TEST(ProtectionRegistry_, BuildRejectsMisnamedInstance)
{
    // A factory whose product does not answer to the registered name
    // would silently break stats naming and the CLI contract.
    ProtectionRegistry reg;
    reg.add("liar", false, [](const ProtectionBuildContext &bctx) {
        return std::make_unique<PassThroughControl>(&bctx.stats);
    });
    stats::Group g("g");
    MemSystem mem(g);
    SocParams params = makeSystem(SystemKind::normal_npu);
    ProtectionBuildContext ctx{g, params, mem, nullptr, 0};
    EXPECT_THROW(reg.build("liar", ctx), FatalError);
}

// ---------------------------------------------------------------- //
// SoC assembly                                                     //
// ---------------------------------------------------------------- //

TEST(SocProtection, UnknownBackendNameIsFatal)
{
    SocParams params = makeSystem(SystemKind::normal_npu);
    params.protection = "bogus";
    EXPECT_THROW(Soc soc(params), FatalError);
}

TEST(SocProtection, SnpuSystemRequiresGuarderBackend)
{
    // The NPU Monitor programs guarder windows; an sNPU system with
    // any other backend cannot boot.
    SocParams params = makeSystem(SystemKind::snpu);
    params.protection = "crypto";
    EXPECT_THROW(Soc soc(params), FatalError);
}

TEST(SocProtection, StatsParityAcrossAllBackends)
{
    // Every backend exports the same canonical counters under the
    // same dotted names, so any two runs diff stat by stat.
    for (const std::string &name :
         ProtectionRegistry::global().names()) {
        SocParams params = makeSystem(
            name == "guarder" ? SystemKind::snpu
            : name == "iommu" ? SystemKind::trustzone_npu
                              : SystemKind::normal_npu);
        params.protection = name;
        Soc soc(params);
        std::ostringstream os;
        soc.stats().dump(os);
        const std::string dump = os.str();
        for (const char *stat :
             {"protection0.checks", "protection0.checked_bytes",
              "protection0.denials", "protection0.denied_bytes",
              "protection0.contexts"}) {
            EXPECT_NE(dump.find(stat), std::string::npos)
                << name << " missing " << stat;
        }
    }
}

TEST(SocProtection, CapabilitiesDescribeEachBackend)
{
    SocParams iommu_params = makeSystem(SystemKind::trustzone_npu);
    Soc iommu_soc(iommu_params);
    const auto iommu_caps = iommu_soc.protection(0).capabilities();
    EXPECT_EQ(iommu_caps.granularity, CheckGranularity::packet);
    EXPECT_TRUE(iommu_caps.translates);
    EXPECT_TRUE(iommu_caps.enforces);
    EXPECT_TRUE(iommu_caps.uses_page_table);
    EXPECT_FALSE(iommu_caps.encrypts);

    Soc guarder_soc(makeSystem(SystemKind::snpu));
    const auto g_caps = guarder_soc.protection(0).capabilities();
    EXPECT_EQ(g_caps.granularity, CheckGranularity::request);
    EXPECT_TRUE(g_caps.enforces);
    EXPECT_TRUE(g_caps.has_windows);
    EXPECT_FALSE(g_caps.uses_page_table);

    SocParams crypto_params = makeSystem(SystemKind::normal_npu);
    crypto_params.protection = "crypto";
    Soc crypto_soc(crypto_params);
    const auto c_caps = crypto_soc.protection(0).capabilities();
    EXPECT_EQ(c_caps.granularity, CheckGranularity::request);
    EXPECT_TRUE(c_caps.enforces);
    EXPECT_TRUE(c_caps.encrypts);
    EXPECT_FALSE(c_caps.translates);

    Soc plain_soc(makeSystem(SystemKind::normal_npu));
    const auto p_caps = plain_soc.protection(0).capabilities();
    EXPECT_FALSE(p_caps.enforces);
    EXPECT_FALSE(p_caps.translates);
    EXPECT_FALSE(p_caps.encrypts);
}

TEST(SocProtection, NarrowingReturnsNullOnKindMismatch)
{
    SocParams params = makeSystem(SystemKind::normal_npu);
    params.protection = "crypto";
    Soc soc(params);
    EXPECT_EQ(soc.protection(0).name(), "crypto");
    EXPECT_EQ(soc.protection(0).asIommu(), nullptr);
    EXPECT_EQ(soc.protection(0).asGuarder(), nullptr);

    Soc snpu_soc(makeSystem(SystemKind::snpu));
    EXPECT_NE(snpu_soc.protection(0).asGuarder(), nullptr);
    EXPECT_EQ(snpu_soc.protection(0).asIommu(), nullptr);
}

// ---------------------------------------------------------------- //
// Crypto backend                                                   //
// ---------------------------------------------------------------- //

struct CryptoFixture : ::testing::Test
{
    CryptoFixture() : crypto(nullptr)
    {
        ProtectionContext ctx;
        ctx.va_base = region_base;
        ctx.pa_base = region_base;
        ctx.bytes = 1u << 20;
        ctx.world = World::normal;
        EXPECT_TRUE(crypto.beginContext(ctx, true).isOk());
    }

    static constexpr Addr region_base = 0x10000;
    CryptoBackend crypto;
};

TEST_F(CryptoFixture, CounterCacheSecondTouchCheaper)
{
    const CryptoBackendParams p; // defaults match the backend's
    const Tick first = crypto.transferOverhead(0, region_base, 256,
                                               MemOp::read);
    const Tick second = crypto.transferOverhead(0, region_base, 256,
                                                MemOp::read);
    // Identical transfer, same 4 KiB page: the only difference is
    // the counter line now hits in the cache.
    EXPECT_EQ(first - second, p.counter_miss_penalty);
    EXPECT_EQ(crypto.counterMisses(), 1u);
    EXPECT_EQ(crypto.counterHits(), 1u);
}

TEST_F(CryptoFixture, OverheadCountsEachTouchedPage)
{
    // A transfer spanning four fresh pages fetches four counter
    // lines; a same-size transfer on one warm page fetches none.
    const Tick cold = crypto.transferOverhead(
        0, region_base + (1u << 12), 4 * (1u << 12), MemOp::read);
    const Tick warm = crypto.transferOverhead(
        0, region_base + (1u << 12), 4 * (1u << 12), MemOp::read);
    const CryptoBackendParams p;
    EXPECT_EQ(cold - warm, 4 * p.counter_miss_penalty);
}

TEST_F(CryptoFixture, MacGapScalesWithBytes)
{
    // SHA throughput (32 B/c) is half the DMA stream (64 B/c), so
    // the per-transfer gap grows linearly with size. Warm the pages
    // first so only the MAC term differs.
    crypto.transferOverhead(0, region_base, 1u << 16, MemOp::read);
    const Tick small = crypto.transferOverhead(0, region_base, 1024,
                                               MemOp::read);
    const Tick large = crypto.transferOverhead(0, region_base,
                                               1u << 16, MemOp::read);
    const CryptoBackendParams p;
    // gap(bytes) = bytes/32 - bytes/64 = bytes/64
    EXPECT_EQ(large - small,
              static_cast<Tick>((1u << 16) / 64 - 1024 / 64));
    EXPECT_GT(large, small);
    (void)p;
}

TEST_F(CryptoFixture, WriteBumpsRegionVersionReadDoesNot)
{
    EXPECT_EQ(crypto.versionBumps(), 0u);
    crypto.transferOverhead(0, region_base, 256, MemOp::read);
    EXPECT_EQ(crypto.versionBumps(), 0u);
    crypto.transferOverhead(0, region_base, 256, MemOp::write);
    EXPECT_EQ(crypto.versionBumps(), 1u);
}

TEST_F(CryptoFixture, IntraRegionSpliceGoesUndetected)
{
    // Known limit (DESIGN §3f): versions are per region, not per
    // block. An attacker with physical access copies block A over
    // block B of the same keyed region without any write transfer;
    // nothing the backend tracks changes, so the read of B still
    // authenticates and returns A's stale data.
    PhysMem dram;
    const Addr block_a = region_base;
    const Addr block_b = region_base + 0x2000;
    dram.fill(block_a, 64, 0xAA);
    dram.fill(block_b, 64, 0xBB);
    crypto.transferOverhead(0, block_a, 64, MemOp::write);
    crypto.transferOverhead(0, block_b, 64, MemOp::write);
    const Digest tag = crypto.regionTag();
    const std::uint64_t bumps = crypto.versionBumps();

    std::uint8_t spliced[64];
    dram.read(block_a, spliced, sizeof(spliced));
    dram.write(block_b, spliced, sizeof(spliced));

    const Translation read =
        crypto.translate(0, block_b, 64, MemOp::read, World::normal);
    EXPECT_TRUE(read.ok);
    EXPECT_EQ(read.paddr, block_b);
    EXPECT_EQ(crypto.regionTag(), tag);
    EXPECT_EQ(crypto.versionBumps(), bumps);
    EXPECT_EQ(crypto.denyCount(), 0u);
    EXPECT_EQ(dram.read8(block_b), 0xAA);
}

TEST_F(CryptoFixture, DeniesOutsideKeyedRegion)
{
    const Translation inside =
        crypto.translate(0, region_base, 256, MemOp::read,
                         World::normal);
    EXPECT_TRUE(inside.ok);
    EXPECT_EQ(inside.paddr, region_base); // identity addressing

    const Translation outside = crypto.translate(
        0, region_base + (2u << 20), 256, MemOp::read, World::normal);
    EXPECT_FALSE(outside.ok);
    EXPECT_EQ(crypto.denyCount(), 1u);
}

TEST_F(CryptoFixture, EndContextRetiresRegions)
{
    EXPECT_TRUE(crypto.translate(0, region_base, 64, MemOp::read,
                                 World::normal)
                    .ok);
    EXPECT_TRUE(crypto.endContext(true).isOk());
    EXPECT_FALSE(crypto.translate(0, region_base, 64, MemOp::read,
                                  World::normal)
                     .ok);
}

TEST(CryptoBackendTest, SecureRegionRejectsNormalWorld)
{
    CryptoBackend crypto(nullptr);
    ProtectionContext ctx;
    ctx.va_base = 0x4000;
    ctx.pa_base = 0x4000;
    ctx.bytes = 1u << 16;
    ctx.world = World::secure;
    ASSERT_TRUE(crypto.beginContext(ctx, true).isOk());

    EXPECT_TRUE(crypto.translate(0, 0x4000, 64, MemOp::read,
                                 World::secure)
                    .ok);
    EXPECT_FALSE(crypto.translate(0, 0x4000, 64, MemOp::read,
                                  World::normal)
                     .ok);
}

TEST(CryptoBackendTest, KeyingRequiresSecurePrivilege)
{
    CryptoBackend crypto(nullptr);
    ProtectionContext ctx;
    ctx.pa_base = 0x4000;
    ctx.bytes = 4096;
    EXPECT_FALSE(crypto.beginContext(ctx, false).isOk());
    EXPECT_FALSE(crypto.endContext(false).isOk());
}

TEST(CryptoBackendTest, RekeyingChangesRegionTag)
{
    // The HMAC-SHA256 region tag binds the version: re-provisioning
    // the same window yields a different tag (freshness).
    CryptoBackend crypto(nullptr);
    ProtectionContext ctx;
    ctx.va_base = 0x8000;
    ctx.pa_base = 0x8000;
    ctx.bytes = 1u << 16;
    ASSERT_TRUE(crypto.beginContext(ctx, true).isOk());
    const Digest first = crypto.regionTag();
    ASSERT_TRUE(crypto.beginContext(ctx, true).isOk());
    const Digest second = crypto.regionTag();
    EXPECT_NE(first, second);
}

TEST(CryptoBackendTest, InjectedFaultDeniesViaBaseProbe)
{
    CryptoBackend crypto(nullptr);
    ProtectionContext ctx;
    ctx.va_base = 0x4000;
    ctx.pa_base = 0x4000;
    ctx.bytes = 4096;
    ASSERT_TRUE(crypto.beginContext(ctx, true).isOk());

    FaultPlan plan;
    FaultSpec spec;
    spec.site = FaultSite::protection_check;
    spec.nth = 1;
    plan.faults.push_back(spec);
    FaultInjector inj(plan);
    crypto.armFaults(&inj);

    EXPECT_FALSE(crypto.translate(0, 0x4000, 64, MemOp::read,
                                  World::normal)
                     .ok);
    EXPECT_EQ(crypto.denyCount(), 1u);
    crypto.armFaults(nullptr);
    EXPECT_TRUE(crypto.translate(0, 0x4000, 64, MemOp::read,
                                 World::normal)
                    .ok);
}

// ---------------------------------------------------------------- //
// Passthrough deny accounting                                      //
// ---------------------------------------------------------------- //

TEST(PassThrough, InjectedFaultCountsCheckAndDenial)
{
    PassThroughControl ctrl;
    FaultPlan plan;
    FaultSpec spec;
    spec.site = FaultSite::protection_check;
    spec.nth = 1;
    plan.faults.push_back(spec);
    FaultInjector inj(plan);
    ctrl.armFaults(&inj);

    const Translation denied =
        ctrl.translate(7, 0x100, 128, MemOp::read, World::normal);
    EXPECT_FALSE(denied.ok);
    EXPECT_GE(denied.ready, 7u);
    EXPECT_EQ(ctrl.checkCount(), 1u);
    EXPECT_EQ(ctrl.denyCount(), 1u);

    const Translation ok =
        ctrl.translate(8, 0x100, 128, MemOp::read, World::normal);
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ctrl.checkCount(), 2u);
    EXPECT_EQ(ctrl.denyCount(), 1u);
}

// ---------------------------------------------------------------- //
// DMA engine contract                                              //
// ---------------------------------------------------------------- //

/** A broken controller whose ready tick precedes the ask tick. */
class TimeTravelControl : public AccessControl
{
  public:
    CheckGranularity granularity() const override
    {
        return CheckGranularity::request;
    }

    Translation
    translate(Tick when, Addr vaddr, std::uint32_t, MemOp,
              World) override
    {
        return Translation{true, vaddr, when > 0 ? when - 1 : 0};
    }

    std::uint64_t checkCount() const override { return 0; }
    std::uint64_t denyCount() const override { return 0; }
};

TEST(DmaContract, EngineAssertsReadyNotBeforeAsk)
{
    stats::Group g("g");
    MemSystem mem(g);
    TimeTravelControl ctrl;
    DmaEngine engine(g, mem, ctrl);
    DmaRequest req{mem.map().dram().base, 256, MemOp::read,
                   World::normal};
    EXPECT_THROW(engine.transfer(10, req, nullptr), PanicError);
}

/** Overhead-only controller: identity translate, fixed tail. */
class TailControl : public AccessControl
{
  public:
    Tick tail = 0;

    CheckGranularity granularity() const override
    {
        return CheckGranularity::request;
    }

    Translation
    translate(Tick when, Addr vaddr, std::uint32_t, MemOp,
              World) override
    {
        return Translation{true, vaddr, when};
    }

    Tick
    transferOverhead(Tick, Addr, std::uint32_t, MemOp) override
    {
        return tail;
    }

    std::uint64_t checkCount() const override { return 0; }
    std::uint64_t denyCount() const override { return 0; }
};

TEST(DmaContract, TransferOverheadDelaysCompletion)
{
    stats::Group g("g");
    MemSystem mem(g);
    TailControl plain;
    DmaEngine base_engine(g, mem, plain);
    DmaRequest req{mem.map().dram().base, 1024, MemOp::read,
                   World::normal};
    const Tick base_done = base_engine.transfer(0, req, nullptr).done;

    stats::Group g2("g2");
    MemSystem mem2(g2);
    TailControl taxed;
    taxed.tail = 777;
    DmaEngine taxed_engine(g2, mem2, taxed);
    DmaRequest req2{mem2.map().dram().base, 1024, MemOp::read,
                    World::normal};
    const Tick taxed_done =
        taxed_engine.transfer(0, req2, nullptr).done;
    EXPECT_EQ(taxed_done, base_done + 777);
}

// ---------------------------------------------------------------- //
// Three-way integration                                            //
// ---------------------------------------------------------------- //

TEST(Integration, ThreeBackendsRunWithDistinctTiming)
{
    auto run = [](SystemKind kind, const std::string &protection) {
        SocParams params = makeSystem(kind);
        if (!protection.empty())
            params.protection = protection;
        Soc soc(params);
        TaskRunner runner(soc);
        NpuTask task = NpuTask::fromModel(ModelId::yololite);
        task.model = task.model.scaled(16);
        RunResult res = runner.run(task);
        EXPECT_TRUE(res.ok()) << protection << ": " << res.error();
        return res;
    };

    const RunResult iommu = run(SystemKind::trustzone_npu, "");
    const RunResult guarder = run(SystemKind::snpu, "");
    const RunResult crypto = run(SystemKind::normal_npu, "crypto");

    // Timing separates the three protection mechanisms.
    EXPECT_NE(iommu.cycles, guarder.cycles);
    EXPECT_NE(crypto.cycles, guarder.cycles);
    // The crypto engine charges bandwidth the guarder does not.
    EXPECT_GT(crypto.cycles, guarder.cycles);
    // Packet-granular checking needs far more lookups than
    // request-granular (Fig 13b: a few percent).
    EXPECT_GT(iommu.check_requests, 10 * guarder.check_requests);
    EXPECT_GT(guarder.check_requests, 0u);
    EXPECT_GT(crypto.check_requests, 0u);
}

} // namespace
} // namespace snpu
