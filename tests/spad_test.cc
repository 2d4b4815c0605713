/**
 * @file
 * Unit and property tests for the scratchpad and the ID-based
 * isolation rules of the NPU Isolator (§IV-B).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"
#include "spad/scratchpad.hh"

namespace snpu
{
namespace
{

SpadParams
smallSpad(SpadScope scope, IsolationMode mode)
{
    SpadParams p;
    p.rows = 64;
    p.row_bytes = 16;
    p.scope = scope;
    p.mode = mode;
    return p;
}

struct LocalIdSpad : ::testing::Test
{
    LocalIdSpad()
        : stats("g"),
          spad(stats, smallSpad(SpadScope::local,
                                IsolationMode::id_based))
    {
    }

    stats::Group stats;
    Scratchpad spad;
};

TEST_F(LocalIdSpad, WriteSetsIdState)
{
    std::uint8_t row[16] = {1};
    EXPECT_EQ(spad.write(World::secure, 5, row), SpadStatus::ok);
    EXPECT_EQ(spad.idState(5), World::secure);
}

TEST_F(LocalIdSpad, ReadRequiresIdMatch)
{
    std::uint8_t row[16] = {42};
    spad.write(World::secure, 3, row);
    std::uint8_t out[16] = {};
    // Cross-world read denied (this is the LeftoverLocals fix).
    EXPECT_EQ(spad.read(World::normal, 3, out),
              SpadStatus::security_violation);
    EXPECT_EQ(out[0], 0);
    // Same-world read succeeds.
    EXPECT_EQ(spad.read(World::secure, 3, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 42);
    EXPECT_EQ(spad.violations(), 1u);
}

TEST_F(LocalIdSpad, ForcedWriteFlipsOwnership)
{
    std::uint8_t secret[16] = {0x55};
    spad.write(World::secure, 7, secret);
    // The normal world may forcibly write: the line flips to normal
    // and the secret is replaced, never revealed.
    std::uint8_t junk[16] = {0xaa};
    EXPECT_EQ(spad.write(World::normal, 7, junk), SpadStatus::ok);
    EXPECT_EQ(spad.idState(7), World::normal);
    std::uint8_t out[16];
    EXPECT_EQ(spad.read(World::normal, 7, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0xaa);
}

TEST_F(LocalIdSpad, BadIndexReported)
{
    EXPECT_EQ(spad.read(World::normal, 64, nullptr),
              SpadStatus::bad_index);
    EXPECT_EQ(spad.write(World::normal, 1000, nullptr),
              SpadStatus::bad_index);
}

TEST_F(LocalIdSpad, SecureResetScrubsAndReleases)
{
    std::uint8_t secret[16] = {0x77};
    spad.write(World::secure, 0, secret);
    spad.write(World::secure, 1, secret);
    // Reset from a non-secure context is rejected.
    EXPECT_FALSE(spad.secureReset(0, 2, false));
    EXPECT_EQ(spad.idState(0), World::secure);
    // The secure instruction releases and scrubs.
    EXPECT_TRUE(spad.secureReset(0, 2, true));
    EXPECT_EQ(spad.idState(0), World::normal);
    std::uint8_t out[16];
    EXPECT_EQ(spad.read(World::normal, 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0);
}

TEST_F(LocalIdSpad, SecureResetBoundsChecked)
{
    EXPECT_FALSE(spad.secureReset(60, 10, true));
}

struct GlobalIdSpad : ::testing::Test
{
    GlobalIdSpad()
        : stats("g"),
          spad(stats, smallSpad(SpadScope::global,
                                IsolationMode::id_based))
    {
    }

    stats::Group stats;
    Scratchpad spad;
};

TEST_F(GlobalIdSpad, NormalCannotWriteSecureLine)
{
    std::uint8_t row[16] = {9};
    spad.write(World::secure, 2, row);
    // Unlike the local rule, the shared scratchpad forbids even the
    // forced write from the normal world.
    EXPECT_EQ(spad.write(World::normal, 2, row),
              SpadStatus::security_violation);
    EXPECT_EQ(spad.idState(2), World::secure);
}

TEST_F(GlobalIdSpad, SecureAccessClaimsLine)
{
    std::uint8_t out[16];
    EXPECT_EQ(spad.idState(4), World::normal);
    EXPECT_EQ(spad.read(World::secure, 4, out), SpadStatus::ok);
    EXPECT_EQ(spad.idState(4), World::secure);
}

TEST_F(GlobalIdSpad, NormalReadOfSecureLineDenied)
{
    std::uint8_t row[16] = {1};
    spad.write(World::secure, 6, row);
    EXPECT_EQ(spad.read(World::normal, 6, nullptr),
              SpadStatus::security_violation);
}

struct PartitionSpad : ::testing::Test
{
    PartitionSpad()
        : stats("g"),
          spad(stats, [] {
              SpadParams p =
                  smallSpad(SpadScope::local, IsolationMode::partition);
              p.partition_boundary = 16; // secure: rows [0, 16)
              return p;
          }())
    {
    }

    stats::Group stats;
    Scratchpad spad;
};

TEST_F(PartitionSpad, WorldsConfinedToTheirHalves)
{
    EXPECT_EQ(spad.write(World::secure, 0, nullptr), SpadStatus::ok);
    EXPECT_EQ(spad.write(World::secure, 16, nullptr),
              SpadStatus::security_violation);
    EXPECT_EQ(spad.write(World::normal, 16, nullptr), SpadStatus::ok);
    EXPECT_EQ(spad.write(World::normal, 15, nullptr),
              SpadStatus::security_violation);
}

TEST_F(PartitionSpad, UsableRowsReflectBoundary)
{
    EXPECT_EQ(spad.usableRows(World::secure), 16u);
    EXPECT_EQ(spad.usableRows(World::normal), 48u);
}

TEST(UnprotectedSpad, LeftoverLocalsIsPossible)
{
    stats::Group stats("g");
    Scratchpad spad(stats,
                    smallSpad(SpadScope::local, IsolationMode::none));
    std::uint8_t secret[16] = {0xde, 0xad};
    spad.write(World::secure, 0, secret);
    std::uint8_t out[16] = {};
    // Without protection, the stale secret leaks — the vulnerability
    // the Isolator exists to close.
    EXPECT_EQ(spad.read(World::normal, 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0xde);
    EXPECT_EQ(out[1], 0xad);
}

TEST(SpadConfig, ModeCanBeSwitched)
{
    stats::Group stats("g");
    Scratchpad spad(stats,
                    smallSpad(SpadScope::local, IsolationMode::none));
    spad.setMode(IsolationMode::id_based);
    EXPECT_EQ(spad.mode(), IsolationMode::id_based);
    EXPECT_EQ(spad.usableRows(World::secure), spad.rows());
}

/**
 * Property test: under ID-based isolation, no sequence of random
 * operations ever lets a normal-world read return bytes last written
 * by the secure world.
 */
struct SpadPropertyParam
{
    SpadScope scope;
    std::uint64_t seed;
};

// Names each case by its fields; the default printer dumps the raw
// bytes, padding included, so the test names would vary run to run.
void
PrintTo(const SpadPropertyParam &param, std::ostream *os)
{
    *os << (param.scope == SpadScope::global ? "global" : "local")
        << "_seed" << param.seed;
}

class SpadIsolationProperty
    : public ::testing::TestWithParam<SpadPropertyParam>
{
};

TEST_P(SpadIsolationProperty, NormalNeverReadsSecureBytes)
{
    const auto param = GetParam();
    stats::Group stats("g");
    Scratchpad spad(stats,
                    smallSpad(param.scope, IsolationMode::id_based));
    Rng rng(param.seed);

    // Track which rows currently hold secure-written data.
    std::set<std::uint32_t> secure_rows;

    for (int op = 0; op < 5000; ++op) {
        const auto row = static_cast<std::uint32_t>(rng.below(64));
        const World world =
            rng.chance(0.5) ? World::secure : World::normal;
        std::uint8_t buf[16];

        if (rng.chance(0.5)) {
            // Write: secure writes 0xA5, normal writes 0x11.
            std::memset(buf, world == World::secure ? 0xa5 : 0x11,
                        sizeof(buf));
            const SpadStatus st = spad.write(world, row, buf);
            if (st == SpadStatus::ok) {
                if (world == World::secure)
                    secure_rows.insert(row);
                else
                    secure_rows.erase(row);
            }
        } else {
            const SpadStatus st = spad.read(world, row, buf);
            if (world == World::normal && st == SpadStatus::ok) {
                // The isolation invariant.
                EXPECT_EQ(secure_rows.count(row), 0u)
                    << "normal read of secure row " << row;
                for (std::uint8_t b : buf)
                    EXPECT_NE(b, 0xa5) << "secure byte leaked";
            }
            if (world == World::secure && st == SpadStatus::ok &&
                param.scope == SpadScope::global) {
                // Secure access claims the line under the global rule.
                EXPECT_EQ(spad.idState(row), World::secure);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ScopesAndSeeds, SpadIsolationProperty,
    ::testing::Values(SpadPropertyParam{SpadScope::local, 1},
                      SpadPropertyParam{SpadScope::local, 99},
                      SpadPropertyParam{SpadScope::global, 1},
                      SpadPropertyParam{SpadScope::global, 77}));

} // namespace
} // namespace snpu
