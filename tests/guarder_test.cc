/**
 * @file
 * Unit and property tests for the NPU Guarder: tile-level
 * translation, coarse checking windows, and the secure-only
 * programming interface.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "guarder/guarder.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

struct GuarderFixture : ::testing::Test
{
    GuarderFixture() : stats("g"), guard(stats) {}

    stats::Group stats;
    NpuGuarder guard;
};

TEST_F(GuarderFixture, TranslatesWithinWindow)
{
    ASSERT_TRUE(guard.setTranslationRegister(0, 0x1000, 0x9000, 0x1000,
                                             true));
    ASSERT_TRUE(guard.setCheckingRegister(0, AddrRange{0x9000, 0x1000},
                                          GuardPerm::rw(),
                                          World::normal, true));
    Translation t = guard.translate(0, 0x1234, 64, MemOp::read,
                                    World::normal);
    EXPECT_TRUE(t.ok);
    EXPECT_EQ(t.paddr, 0x9234u);
    EXPECT_EQ(guard.checkCount(), 1u);
}

TEST_F(GuarderFixture, OutOfWindowDenied)
{
    ASSERT_TRUE(guard.setTranslationRegister(0, 0x1000, 0x9000, 0x1000,
                                             true));
    ASSERT_TRUE(guard.setCheckingRegister(0, AddrRange{0x9000, 0x1000},
                                          GuardPerm::rw(),
                                          World::normal, true));
    // Straddles the window end.
    EXPECT_FALSE(guard.translate(0, 0x1fc0 + 32, 64, MemOp::read,
                                 World::normal)
                     .ok);
    // Entirely outside.
    EXPECT_FALSE(guard.translate(0, 0x3000, 64, MemOp::read,
                                 World::normal)
                     .ok);
    EXPECT_EQ(guard.denyCount(), 2u);
}

TEST_F(GuarderFixture, PermissionBitsEnforced)
{
    ASSERT_TRUE(guard.setTranslationRegister(0, 0x1000, 0x9000, 0x1000,
                                             true));
    ASSERT_TRUE(guard.setCheckingRegister(0, AddrRange{0x9000, 0x1000},
                                          GuardPerm::ro(),
                                          World::normal, true));
    EXPECT_TRUE(guard.translate(0, 0x1000, 64, MemOp::read,
                                World::normal)
                    .ok);
    EXPECT_FALSE(guard.translate(0, 0x1000, 64, MemOp::write,
                                 World::normal)
                     .ok);
}

TEST_F(GuarderFixture, SecureWindowUnusableFromNormalWorld)
{
    ASSERT_TRUE(guard.setTranslationRegister(0, 0x1000, 0x9000, 0x1000,
                                             true));
    ASSERT_TRUE(guard.setCheckingRegister(0, AddrRange{0x9000, 0x1000},
                                          GuardPerm::rw(),
                                          World::secure, true));
    EXPECT_FALSE(guard.translate(0, 0x1000, 64, MemOp::read,
                                 World::normal)
                     .ok);
    EXPECT_TRUE(guard.translate(0, 0x1000, 64, MemOp::read,
                                World::secure)
                    .ok);
}

TEST_F(GuarderFixture, TranslationWithoutWindowDenied)
{
    ASSERT_TRUE(guard.setTranslationRegister(0, 0x1000, 0x9000, 0x1000,
                                             true));
    // No checking register installed: the PA check must fail.
    EXPECT_FALSE(guard.translate(0, 0x1000, 64, MemOp::read,
                                 World::normal)
                     .ok);
}

TEST_F(GuarderFixture, NonSecureProgrammingRejected)
{
    EXPECT_FALSE(guard.setTranslationRegister(0, 0, 0, 64, false));
    EXPECT_FALSE(guard.setCheckingRegister(0, AddrRange{0, 64},
                                           GuardPerm::rw(),
                                           World::normal, false));
    EXPECT_FALSE(guard.clearAll(false));
    EXPECT_FALSE(guard.clearTranslationRegister(0, false));
    EXPECT_EQ(guard.configViolations(), 4u);
}

TEST_F(GuarderFixture, BadSlotRejected)
{
    EXPECT_FALSE(guard.setTranslationRegister(
        NpuGuarder::translation_registers, 0, 0, 64, true));
    EXPECT_FALSE(guard.setCheckingRegister(
        NpuGuarder::checking_registers, AddrRange{0, 64}, GuardPerm::rw(),
        World::normal, true));
    EXPECT_FALSE(guard.setTranslationRegister(0, 0, 0, 0, true));
}

TEST_F(GuarderFixture, ClearAllRemovesState)
{
    ASSERT_TRUE(guard.setTranslationRegister(0, 0x1000, 0x9000, 0x1000,
                                             true));
    ASSERT_TRUE(guard.setCheckingRegister(0, AddrRange{0x9000, 0x1000},
                                          GuardPerm::rw(),
                                          World::normal, true));
    ASSERT_TRUE(guard.clearAll(true));
    EXPECT_FALSE(guard.translate(0, 0x1000, 64, MemOp::read,
                                 World::normal)
                     .ok);
}

TEST_F(GuarderFixture, MultipleWindowsSelectCorrectly)
{
    ASSERT_TRUE(guard.setTranslationRegister(0, 0x1000, 0x9000, 0x1000,
                                             true));
    ASSERT_TRUE(guard.setTranslationRegister(1, 0x5000, 0xc000, 0x800,
                                             true));
    ASSERT_TRUE(guard.setCheckingRegister(0, AddrRange{0x9000, 0x1000},
                                          GuardPerm::rw(),
                                          World::normal, true));
    ASSERT_TRUE(guard.setCheckingRegister(1, AddrRange{0xc000, 0x800},
                                          GuardPerm::ro(),
                                          World::normal, true));
    EXPECT_EQ(guard.translate(0, 0x1100, 64, MemOp::write,
                              World::normal)
                  .paddr,
              0x9100u);
    EXPECT_EQ(guard.translate(0, 0x5100, 64, MemOp::read,
                              World::normal)
                  .paddr,
              0xc100u);
    EXPECT_FALSE(guard.translate(0, 0x5100, 64, MemOp::write,
                                 World::normal)
                     .ok);
}

TEST_F(GuarderFixture, ZeroLatencyChecks)
{
    ASSERT_TRUE(guard.setTranslationRegister(0, 0x1000, 0x9000, 0x1000,
                                             true));
    ASSERT_TRUE(guard.setCheckingRegister(0, AddrRange{0x9000, 0x1000},
                                          GuardPerm::rw(),
                                          World::normal, true));
    Translation t = guard.translate(777, 0x1000, 64, MemOp::read,
                                    World::normal);
    EXPECT_EQ(t.ready, 777u);
}

/**
 * Property test: against a randomly programmed guarder, compare
 * every translation against a software oracle.
 */
class GuarderPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GuarderPropertyTest, MatchesOracle)
{
    stats::Group stats("g");
    NpuGuarder guard(stats);
    Rng rng(GetParam());

    struct Window
    {
        Addr va, pa, size;
    };
    std::vector<Window> windows;
    for (std::uint32_t i = 0; i < 4; ++i) {
        Window w;
        w.va = 0x10000 * (i + 1);
        w.pa = 0x80000 + 0x10000 * i;
        w.size = 0x1000 + rng.below(0x4000);
        windows.push_back(w);
        ASSERT_TRUE(guard.setTranslationRegister(i, w.va, w.pa, w.size,
                                                 true));
        ASSERT_TRUE(guard.setCheckingRegister(
            i, AddrRange{w.pa, w.size}, GuardPerm::rw(),
            World::normal, true));
    }

    for (int trial = 0; trial < 2000; ++trial) {
        const Addr va = rng.below(0x60000);
        const auto bytes =
            static_cast<std::uint32_t>(1 + rng.below(256));
        Translation t = guard.translate(0, va, bytes, MemOp::read,
                                        World::normal);

        // Oracle: inside exactly one window and fully contained?
        bool expect_ok = false;
        Addr expect_pa = 0;
        for (const Window &w : windows) {
            if (va >= w.va && va - w.va + bytes <= w.size) {
                expect_ok = true;
                expect_pa = w.pa + (va - w.va);
                break;
            }
        }
        EXPECT_EQ(t.ok, expect_ok) << "va=" << va << " n=" << bytes;
        if (expect_ok) {
            EXPECT_EQ(t.paddr, expect_pa);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuarderPropertyTest,
                         ::testing::Values(1, 7, 21, 333));

/**
 * The memoized context fingerprint after each register writer equals
 * the fingerprint of a fresh guarder given the same writes, and each
 * write moves it — so a memo the writer failed to clear would show.
 * Rejected writes change no register and leave it alone.
 */
TEST(GuarderFingerprint, EveryRegisterWriterClearsTheMemo)
{
    using Write = std::function<bool(NpuGuarder &)>;
    const std::vector<Write> writes = {
        [](NpuGuarder &g) {
            return g.setCheckingRegister(0, AddrRange{0x10000, 0x4000},
                                         GuardPerm::rw(), World::secure,
                                         true);
        },
        [](NpuGuarder &g) {
            return g.setTranslationRegister(0, 0x1000, 0x10000, 0x4000,
                                            true);
        },
        [](NpuGuarder &g) {
            return g.setTranslationRegister(3, 0x8000, 0x12000, 0x1000,
                                            true);
        },
        [](NpuGuarder &g) { return g.clearTranslationRegister(0, true); },
        [](NpuGuarder &g) {
            return g.setCheckingRegister(2, AddrRange{0x20000, 0x1000},
                                         GuardPerm::ro(), World::normal,
                                         true);
        },
        [](NpuGuarder &g) { return g.clearAll(true); },
        [](NpuGuarder &g) {
            ProtectionContext ctx;
            ctx.va_base = 0x4000;
            ctx.pa_base = 0x30000;
            ctx.bytes = 0x2000;
            return g.beginContext(ctx, true).isOk();
        },
        [](NpuGuarder &g) { return g.endContext(true).isOk(); },
    };

    stats::Group gs("g");
    NpuGuarder guard(gs);
    std::uint64_t prev = guard.contextFingerprint(0, 0);
    for (std::size_t i = 0; i < writes.size(); ++i) {
        ASSERT_TRUE(writes[i](guard)) << "write " << i;
        stats::Group fs("fresh");
        NpuGuarder fresh(fs);
        for (std::size_t j = 0; j <= i; ++j)
            ASSERT_TRUE(writes[j](fresh));
        const std::uint64_t fp = guard.contextFingerprint(0, 0);
        EXPECT_EQ(fp, fresh.contextFingerprint(0, 0)) << "write " << i;
        EXPECT_NE(fp, prev) << "write " << i << " moved no register";
        prev = fp;
    }

    EXPECT_FALSE(guard.setCheckingRegister(
        0, AddrRange{0, 0x1000}, GuardPerm::rw(), World::normal, false));
    EXPECT_FALSE(guard.setTranslationRegister(0, 0, 0, 0x1000, false));
    EXPECT_FALSE(guard.clearAll(false));
    EXPECT_EQ(guard.contextFingerprint(0, 0), prev);
}

} // namespace
} // namespace snpu
