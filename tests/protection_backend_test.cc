/**
 * @file
 * Tests for the ProtectionBackend seam: the closed backend table,
 * the SoC's backend assembly, canonical stats parity
 * across backends, the crypto engine's counter-cache/MAC timing,
 * and the DMA engine's controller contract.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/protection_table.hh"
#include "core/soc.hh"
#include "core/systems.hh"
#include "core/task_runner.hh"
#include "dma/crypto_backend.hh"
#include "dma/dma_engine.hh"
#include "mem/phys_mem.hh"
#include "sim/logging.hh"
#include "workload/model_zoo.hh"

namespace snpu
{
namespace
{

// ---------------------------------------------------------------- //
// Backend table                                                    //
// ---------------------------------------------------------------- //

TEST(ProtectionTable, ListsFourBackendsInRowOrder)
{
    for (const char *name :
         {"passthrough", "iommu", "guarder", "crypto"}) {
        EXPECT_TRUE(isProtectionBackend(name)) << name;
    }
    EXPECT_FALSE(isProtectionBackend("mpu"));

    // Row order is stable: error messages and CI loops enumerate
    // deterministically.
    EXPECT_EQ(protectionBackendNames(),
              (std::vector<std::string>{"passthrough", "iommu",
                                        "guarder", "crypto"}));
}

TEST(ProtectionTable, UnknownNameFatalListsEveryName)
{
    try {
        protectionBackend("not-a-backend");
        FAIL() << "unknown backend name should be fatal";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what())
                      .find("unknown protection backend "
                            "'not-a-backend' (registered: passthrough, "
                            "iommu, guarder, crypto)"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ProtectionTableDeathTest, CommandLineCheckExits2)
{
    EXPECT_EXIT(requireProtectionBackend("mpu"),
                ::testing::ExitedWithCode(2),
                "unknown protection backend 'mpu' \\(registered: "
                "passthrough, iommu, guarder, crypto\\)");
}

// ---------------------------------------------------------------- //
// SoC assembly                                                     //
// ---------------------------------------------------------------- //

/** The comparative system whose canonical params pick @p name. */
SystemKind
nativeSystem(const std::string &name)
{
    return name == "guarder" ? SystemKind::snpu
           : name == "iommu" ? SystemKind::trustzone_npu
                             : SystemKind::normal_npu;
}

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
    for (const std::string &name : protectionBackendNames()) {
        SocParams params = makeSystem(nativeSystem(name));
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

TEST(SocProtection, EveryRowBuildsOnItsSystem)
{
    // A backend that did not answer to its row's name would break
    // stats naming and the command-line contract.
    for (const std::string &name : protectionBackendNames()) {
        SocParams params = makeSystem(nativeSystem(name));
        params.protection = name;
        Soc soc(params);
        for (std::uint32_t t = 0; t < params.tiles; ++t)
            EXPECT_EQ(soc.protection(t).name(), name);
    }
}

TEST(SocProtection, CapabilitiesDescribeEachBackend)
{
    // Per DESIGN §3f only the IOMMU checks per packet, and only it
    // gets the shared page table.
    for (const std::string &name : protectionBackendNames()) {
        SocParams params = makeSystem(nativeSystem(name));
        params.protection = name;
        Soc soc(params);
        const bool iommu = name == "iommu";
        EXPECT_EQ(protectionBackend(name).needs_page_table, iommu)
            << name;
        for (std::uint32_t t = 0; t < params.tiles; ++t) {
            EXPECT_EQ(soc.protection(t).granularity(),
                      iommu ? CheckGranularity::packet
                            : CheckGranularity::request)
                << name;
        }
        if (iommu)
            EXPECT_NO_THROW(soc.pageTable());
        else
            EXPECT_THROW(soc.pageTable(), PanicError) << name;
    }
}

TEST(SocProtection, SweepRuleCarriesOnlyGuarderOnSnpu)
{
    // The serving sweeps' backend -> system rule: only sNPU has the
    // NPU Monitor, so only the guarder keeps secure tenants secure.
    for (const std::string &name : protectionBackendNames()) {
        const bool guarder = name == "guarder";
        const SystemKind kind =
            guarder ? SystemKind::snpu : SystemKind::normal_npu;
        EXPECT_EQ(systemForBackend(name), kind) << name;
        const SocParams params = paramsForBackend(name);
        EXPECT_EQ(params.system, kind) << name;
        EXPECT_EQ(params.protection, name);
        EXPECT_EQ(worldForBackend(name, World::secure),
                  guarder ? World::secure : World::normal)
            << name;
        EXPECT_EQ(worldForBackend(name, World::normal), World::normal);
        Soc soc(params);
        EXPECT_EQ(soc.hasMonitor(), guarder) << name;
    }
}

TEST(SocProtection, NarrowingReturnsNullOnKindMismatch)
{
    SocParams params = makeSystem(SystemKind::normal_npu);
    params.protection = "crypto";
    Soc soc(params);
    EXPECT_EQ(soc.protection(0).name(), "crypto");
    EXPECT_EQ(soc.protection(0).asGuarder(), nullptr);

    Soc snpu_soc(makeSystem(SystemKind::snpu));
    EXPECT_NE(snpu_soc.protection(0).asGuarder(), nullptr);
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
    const Tick first = crypto.transferOverhead(0, region_base, 256,
                                               MemOp::read);
    const Tick second = crypto.transferOverhead(0, region_base, 256,
                                                MemOp::read);
    // Identical transfer, same 4 KiB page: the only difference is
    // the counter line now hits in the cache.
    EXPECT_EQ(first - second, CounterModeTiming::counter_miss_penalty);
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
    EXPECT_EQ(cold - warm, 4 * CounterModeTiming::counter_miss_penalty);
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
    // gap(bytes) = bytes/32 - bytes/64 = bytes/64
    EXPECT_EQ(large - small,
              static_cast<Tick>((1u << 16) / 64 - 1024 / 64));
    EXPECT_GT(large, small);
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

TEST(CryptoBackendTest, ContextFingerprintFollowsKeyingAndRetirement)
{
    // Memoized: each beginContext/endContext must clear the memo, so
    // after each one the fingerprint equals a fresh backend's.
    auto keyed = [](Addr base) {
        ProtectionContext ctx;
        ctx.va_base = base;
        ctx.pa_base = base;
        ctx.bytes = 1u << 16;
        return ctx;
    };
    CryptoBackend crypto(nullptr);
    const std::uint64_t empty = crypto.contextFingerprint(0, 0);

    ASSERT_TRUE(crypto.beginContext(keyed(0x8000), true).isOk());
    const std::uint64_t fp_a = crypto.contextFingerprint(0, 0);
    CryptoBackend fresh_a(nullptr);
    ASSERT_TRUE(fresh_a.beginContext(keyed(0x8000), true).isOk());
    EXPECT_EQ(fp_a, fresh_a.contextFingerprint(0, 0));
    EXPECT_NE(fp_a, empty);

    ASSERT_TRUE(crypto.beginContext(keyed(0x40000), true).isOk());
    const std::uint64_t fp_b = crypto.contextFingerprint(0, 0);
    CryptoBackend fresh_b(nullptr);
    ASSERT_TRUE(fresh_b.beginContext(keyed(0x40000), true).isOk());
    EXPECT_EQ(fp_b, fresh_b.contextFingerprint(0, 0));
    EXPECT_NE(fp_b, fp_a);

    // Re-keying the same window bumps only the version, which is not
    // timing-visible.
    ASSERT_TRUE(crypto.beginContext(keyed(0x40000), true).isOk());
    EXPECT_EQ(crypto.contextFingerprint(0, 0), fp_b);

    ASSERT_TRUE(crypto.endContext(true).isOk());
    EXPECT_EQ(crypto.contextFingerprint(0, 0), empty);
}

TEST(CryptoBackendTest, RegionTagBindsTheKeyingVersion)
{
    // The tag is computed on demand; write transfers bump the live
    // version but not the version the region was keyed with.
    CryptoBackend crypto(nullptr);
    ProtectionContext ctx;
    ctx.va_base = 0x8000;
    ctx.pa_base = 0x8000;
    ctx.bytes = 1u << 16;
    EXPECT_EQ(crypto.regionTag(), Digest{});
    ASSERT_TRUE(crypto.beginContext(ctx, true).isOk());
    const Digest tag = crypto.regionTag();
    EXPECT_NE(tag, Digest{});
    crypto.transferOverhead(0, 0x8000, 64, MemOp::write);
    ASSERT_EQ(crypto.versionBumps(), 1u);
    EXPECT_EQ(crypto.regionTag(), tag);
    ASSERT_TRUE(crypto.endContext(true).isOk());
    EXPECT_EQ(crypto.regionTag(), Digest{});
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
class TimeTravelControl : public PassThroughControl
{
  public:
    Translation
    translate(Tick when, Addr vaddr, std::uint32_t, MemOp,
              World) override
    {
        return Translation{true, vaddr, when > 0 ? when - 1 : 0};
    }
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
class TailControl : public PassThroughControl
{
  public:
    Tick tail = 0;

    Tick
    transferOverhead(Tick, Addr, std::uint32_t, MemOp) override
    {
        return tail;
    }
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
