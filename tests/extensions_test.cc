/**
 * @file
 * Tests for the §VII extensions: multiple hardware secure domains
 * and the TNPU-style memory encryption engine that sNPU complements.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/area_model.hh"
#include "core/systems.hh"
#include "mem/mem_crypto.hh"
#include "mem/mem_system.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "spad/scratchpad.hh"

namespace snpu
{
namespace
{

SpadParams
smallMd(SpadScope scope, std::uint32_t domains)
{
    SpadParams p;
    p.rows = 64;
    p.row_bytes = 16;
    p.scope = scope;
    p.domains = domains;
    return p;
}

TEST(MultiDomainSpad, TagBits)
{
    EXPECT_EQ(spadTagBits(2), 1u);
    EXPECT_EQ(spadTagBits(4), 2u);
    EXPECT_EQ(spadTagBits(16), 4u);
    EXPECT_EQ(spadTagBits(256), 8u);
}

TEST(MultiDomainSpad, NonPowerOfTwoIsFatal)
{
    stats::Group stats("g");
    EXPECT_THROW(Scratchpad(stats, smallMd(SpadScope::local, 3)),
                 FatalError);
    EXPECT_THROW(Scratchpad(stats, smallMd(SpadScope::local, 1)),
                 FatalError);
    // The tag is one byte.
    EXPECT_THROW(Scratchpad(stats, smallMd(SpadScope::local, 512)),
                 FatalError);
}

TEST(MultiDomainSpad, DomainsAreMutuallyIsolated)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::local, 4));
    std::uint8_t row[16] = {0x11};
    ASSERT_EQ(spad.write(DomainId{1}, 0, row), SpadStatus::ok);

    // Domains 2, 3 and the normal world all get denied; domain 1
    // reads its own data back.
    for (std::uint8_t d : {0, 2, 3}) {
        EXPECT_EQ(spad.read(DomainId{d}, 0, nullptr),
                  SpadStatus::security_violation)
            << "domain " << int(d);
    }
    std::uint8_t out[16];
    EXPECT_EQ(spad.read(DomainId{1}, 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0x11);
    EXPECT_EQ(spad.violations(), 3u);
}

TEST(MultiDomainSpad, ForcedWriteRetagsOnLocal)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::local, 4));
    std::uint8_t secret[16] = {0x5e};
    spad.write(DomainId{2}, 5, secret);
    std::uint8_t junk[16] = {0x00};
    EXPECT_EQ(spad.write(DomainId{3}, 5, junk), SpadStatus::ok);
    EXPECT_EQ(spad.idState(5), DomainId{3});
    std::uint8_t out[16];
    EXPECT_EQ(spad.read(DomainId{3}, 5, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0x00);
}

TEST(MultiDomainSpad, SharedScopeForbidsForcedCrossDomainWrite)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::global, 4));
    std::uint8_t row[16] = {1};
    spad.write(DomainId{1}, 0, row);
    EXPECT_EQ(spad.write(DomainId{2}, 0, row),
              SpadStatus::security_violation);
    EXPECT_EQ(spad.write(World::normal, 0, row),
              SpadStatus::security_violation);
    // Domain 1 keeps access.
    EXPECT_EQ(spad.write(DomainId{1}, 0, row), SpadStatus::ok);
}

TEST(MultiDomainSpad, SecureAccessClaimsUntaggedSharedLine)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::global, 8));
    EXPECT_EQ(spad.idState(3), World::normal);
    EXPECT_EQ(spad.read(DomainId{5}, 3, nullptr), SpadStatus::ok);
    EXPECT_EQ(spad.idState(3), DomainId{5});
}

TEST(MultiDomainSpad, ResetDomainScrubsOnlyThatDomain)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::local, 4));
    std::uint8_t a[16] = {0xaa};
    std::uint8_t b[16] = {0xbb};
    spad.write(DomainId{1}, 0, a);
    spad.write(DomainId{2}, 1, b);

    EXPECT_FALSE(spad.resetDomain(DomainId{1}, false)); // needs privilege
    EXPECT_FALSE(spad.resetDomain(World::normal, true)); // not resettable
    EXPECT_TRUE(spad.resetDomain(DomainId{1}, true));

    EXPECT_EQ(spad.idState(0), World::normal);
    EXPECT_EQ(spad.idState(1), DomainId{2}); // untouched
    std::uint8_t out[16];
    EXPECT_EQ(spad.read(World::normal, 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(spad.read(DomainId{2}, 1, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0xbb);
}

TEST(MultiDomainSpad, InvalidDomainRejected)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::local, 4));
    EXPECT_EQ(spad.write(DomainId{4}, 0, nullptr),
              SpadStatus::security_violation);
    EXPECT_EQ(spad.read(DomainId{9}, 0, nullptr),
              SpadStatus::security_violation);
    EXPECT_EQ(spad.violations(), 2u);
    // The rejected write forced no tag.
    EXPECT_EQ(spad.idState(0), World::normal);
    EXPECT_FALSE(spad.ruleAllows(DomainId{4}, 0, 1, true));
    EXPECT_FALSE(spad.resetDomain(DomainId{4}, true));
}

/** One seed and scope of the cross-domain property. */
struct LeakCase
{
    std::uint64_t seed;
    SpadScope scope;
};

/** Print only the seed: the instantiation's prefix names the scope. */
void
PrintTo(const LeakCase &c, std::ostream *os)
{
    *os << c.seed;
}

/**
 * Property: no domain ever reads another domain's bytes. Against a
 * model of every row's tag and last written byte, each access's
 * status is exactly the rule's, and a successful read returns the
 * bytes last written to the row (zeros if it never was).
 */
class MultiDomainProperty : public ::testing::TestWithParam<LeakCase>
{
};

TEST_P(MultiDomainProperty, NoCrossDomainLeak)
{
    const auto [seed, scope] = GetParam();
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(scope, 8));
    Rng rng(seed);
    std::vector<std::uint8_t> tag(64, 0);     // expected wordline tag
    std::vector<std::uint8_t> content(64, 0); // last byte written

    for (int op = 0; op < 5000; ++op) {
        const auto row = static_cast<std::uint32_t>(rng.below(64));
        const auto d = static_cast<std::uint8_t>(rng.below(8));
        const bool allowed = scope == SpadScope::local
                                 ? tag[row] == d
                                 : tag[row] == 0 || tag[row] == d;
        std::uint8_t buf[16];
        if (rng.chance(0.5)) {
            std::memset(buf, 0x10 + d, sizeof(buf));
            const bool ok =
                spad.write(DomainId{d}, row, buf) == SpadStatus::ok;
            ASSERT_EQ(ok, scope == SpadScope::local || allowed)
                << "op " << op;
            if (ok) {
                tag[row] = d;
                content[row] = buf[0];
            }
        } else {
            const bool ok =
                spad.read(DomainId{d}, row, buf) == SpadStatus::ok;
            ASSERT_EQ(ok, allowed) << "op " << op;
            if (ok) {
                tag[row] = d;
                for (const std::uint8_t byte : buf)
                    ASSERT_EQ(byte, content[row]) << "op " << op;
                // Those bytes are zeros, the reader's own or (on the
                // shared pad) the normal world's.
                EXPECT_TRUE(content[row] == 0 || content[row] == 0x10 + d ||
                            content[row] == 0x10)
                    << "op " << op;
            }
        }
        ASSERT_EQ(spad.idState(row), DomainId{tag[row]}) << "op " << op;
    }
}

std::vector<LeakCase>
leakCases(SpadScope scope)
{
    std::vector<LeakCase> out;
    for (const std::uint64_t seed : {3, 17, 1234})
        out.push_back(LeakCase{seed, scope});
    return out;
}

std::string
leakCaseName(const ::testing::TestParamInfo<LeakCase> &info)
{
    return std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiDomainProperty,
                         ::testing::ValuesIn(leakCases(SpadScope::local)),
                         leakCaseName);
INSTANTIATE_TEST_SUITE_P(SharedSeeds, MultiDomainProperty,
                         ::testing::ValuesIn(leakCases(SpadScope::global)),
                         leakCaseName);

TEST(MemCrypto, DisabledIsFree)
{
    stats::Group stats("g");
    MemCryptoEngine engine(stats);
    EXPECT_EQ(engine.accessPenalty(0x1000), 0u);
    EXPECT_FALSE(engine.enabled());
}

TEST(MemCrypto, CounterCacheHitsAndMisses)
{
    stats::Group stats("g");
    MemCryptoParams p;
    p.enabled = true;
    MemCryptoEngine engine(stats, p);
    constexpr Tick miss_cost = CounterModeTiming::engine_latency +
                               CounterModeTiming::counter_miss_penalty;

    // First touch of a page: miss; second: hit.
    const Tick miss = engine.accessPenalty(0x10000);
    const Tick hit = engine.accessPenalty(0x10040);
    EXPECT_EQ(miss, miss_cost);
    EXPECT_EQ(hit, CounterModeTiming::engine_latency);

    // Thrash the cache with one page more than it holds: the last
    // new page evicts 0x10000's (LRU).
    constexpr std::uint32_t entries = CounterCache::entries;
    for (std::uint32_t i = 1; i <= entries; ++i)
        engine.accessPenalty(0x10000 + Addr(i) * page_bytes);
    EXPECT_EQ(engine.counterMisses(), 1u + entries);
    EXPECT_EQ(engine.accessPenalty(0x10000), miss_cost);
    EXPECT_EQ(engine.counterMisses(), 2u + entries);
}

TEST(MemCrypto, EndToEndOverheadIsModest)
{
    SystemOverrides plain;
    plain.model_scale = 8;
    SystemOverrides enc = plain;
    enc.memory_encryption = true;

    RunResult base = measureModel(SystemKind::snpu, ModelId::resnet,
                                  plain);
    RunResult with = measureModel(SystemKind::snpu, ModelId::resnet,
                                  enc);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(with.ok());
    EXPECT_GT(with.cycles, base.cycles);
    // TNPU-class engines stay in single-digit percentages.
    EXPECT_LT(static_cast<double>(with.cycles),
              1.15 * static_cast<double>(base.cycles));
}

TEST(AreaModelExtension, TagBitsScaleWithDomains)
{
    AreaModel model(makeSystem(SystemKind::snpu));
    const Resources d2 = model.sSpadMultiDomain(2);
    const Resources d4 = model.sSpadMultiDomain(4);
    const Resources d16 = model.sSpadMultiDomain(16);
    // Two domains is the paper's design: exactly S_Spad.
    EXPECT_DOUBLE_EQ(d2.ram_bits, model.sSpad().ram_bits);
    EXPECT_DOUBLE_EQ(d2.luts, model.sSpad().luts);
    EXPECT_DOUBLE_EQ(d2.ffs, model.sSpad().ffs);
    EXPECT_GT(d4.ram_bits, d2.ram_bits);
    EXPECT_GT(d16.ram_bits, d4.ram_bits);
    EXPECT_NEAR(d16.ram_bits, 4 * d2.ram_bits, 1.0);
    // Even 16 domains stay under ~3% of the tile's RAM bits.
    const Resources pct = model.baselineTile().percentOver(d16);
    EXPECT_LT(pct.ram_bits, 3.0);
}

} // namespace
} // namespace snpu
