/**
 * @file
 * Unit tests for the peephole router-controller protocol (Fig 12)
 * and the software NoC baseline.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "mem/mem_system.hh"
#include "noc/mesh.hh"
#include "noc/router_controller.hh"
#include "noc/software_noc.hh"
#include "sim/stats.hh"
#include "spad/scratchpad.hh"

namespace snpu
{
namespace
{

struct FabricFixture : ::testing::Test
{
    FabricFixture()
        : stats("g"), mesh(stats),
          fabric(stats, mesh, NocMode::peephole)
    {
        SpadParams p;
        p.rows = 256;
        p.row_bytes = 16;
        p.mode = IsolationMode::id_based;
        for (std::uint32_t i = 0; i < mesh.nodes(); ++i) {
            spad_groups.push_back(std::make_unique<stats::Group>(
                stats, "spad" + std::to_string(i)));
            spads.push_back(
                std::make_unique<Scratchpad>(*spad_groups.back(), p));
            fabric.attachScratchpad(i, spads.back().get());
        }
    }

    void
    fillRow(std::uint32_t core, std::uint32_t row, std::uint8_t value,
            World world)
    {
        std::uint8_t buf[16];
        std::memset(buf, value, sizeof(buf));
        ASSERT_EQ(spads[core]->write(world, row, buf), SpadStatus::ok);
    }

    stats::Group stats;
    Mesh mesh;
    NocFabric fabric;
    std::vector<std::unique_ptr<stats::Group>> spad_groups;
    std::vector<std::unique_ptr<Scratchpad>> spads;
};

TEST_F(FabricFixture, SameWorldTransferSucceeds)
{
    fillRow(0, 0, 0x42, World::normal);
    NocResult res = fabric.transfer(0, 0, 1, 0, 0, 1);
    EXPECT_TRUE(res.ok);
    std::uint8_t out[16];
    ASSERT_EQ(spads[1]->read(World::normal, 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0x42);
    EXPECT_EQ(fabric.authHandshakes(), 1u);
    EXPECT_EQ(fabric.authRejects(), 0u);
}

TEST_F(FabricFixture, CrossWorldTransferRejectedByPeephole)
{
    mesh.setNodeWorld(0, World::secure);
    fillRow(0, 0, 0x66, World::secure);
    // Destination core 1 stays in the normal world.
    NocResult res = fabric.transfer(0, 0, 1, 0, 0, 1);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.auth_failed);
    EXPECT_EQ(fabric.authRejects(), 1u);
    // Nothing landed at the destination.
    std::uint8_t out[16];
    ASSERT_EQ(spads[1]->read(World::normal, 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0);
}

TEST_F(FabricFixture, SecureToSecureSucceeds)
{
    mesh.setNodeWorld(0, World::secure);
    mesh.setNodeWorld(1, World::secure);
    fillRow(0, 3, 0x77, World::secure);
    NocResult res = fabric.transfer(0, 0, 1, 3, 3, 1);
    EXPECT_TRUE(res.ok);
    std::uint8_t out[16];
    ASSERT_EQ(spads[1]->read(World::secure, 3, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0x77);
}

TEST_F(FabricFixture, HandshakeHappensOncePerLockedChannel)
{
    fillRow(0, 0, 1, World::normal);
    fabric.transfer(0, 0, 1, 0, 0, 1);
    fabric.transfer(1000, 0, 1, 0, 0, 1);
    fabric.transfer(2000, 0, 1, 0, 0, 1);
    EXPECT_EQ(fabric.authHandshakes(), 1u);
}

TEST_F(FabricFixture, LockedChannelRejectsForeignSender)
{
    fillRow(0, 0, 1, World::normal);
    fillRow(2, 0, 2, World::normal);
    fabric.transfer(0, 0, 1, 0, 0, 1); // core 0 locks channel to 1
    NocResult res = fabric.transfer(10, 2, 1, 0, 0, 1);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.auth_failed);
    fabric.unlockAll();
    NocResult after = fabric.transfer(20, 2, 1, 0, 0, 1);
    EXPECT_TRUE(after.ok);
}

TEST_F(FabricFixture, PeepholeSteadyStateMatchesUnauthorized)
{
    // After the one-time handshake, per-transfer latency under the
    // peephole equals the unauthorized NoC (Fig 16's key claim).
    fillRow(0, 0, 1, World::normal);
    fabric.transfer(0, 0, 1, 0, 0, 1); // pay the handshake
    const Tick t0 = 10000;
    NocResult locked = fabric.transfer(t0, 0, 1, 0, 0, 32);

    stats::Group stats2("g2");
    Mesh mesh2(stats2);
    NocFabric unauth(stats2, mesh2, NocMode::unauthorized);
    SpadParams p;
    p.rows = 256;
    p.row_bytes = 16;
    stats::Group g_s0(stats2, "s0"), g_s1(stats2, "s1");
    Scratchpad s0(g_s0, p), s1(g_s1, p);
    unauth.attachScratchpad(0, &s0);
    unauth.attachScratchpad(1, &s1);
    std::uint8_t buf[16] = {1};
    s0.write(World::normal, 0, buf);
    NocResult raw = unauth.transfer(t0, 0, 1, 0, 0, 32);

    EXPECT_EQ(locked.done - t0, raw.done - t0);
}

TEST_F(FabricFixture, UnauthorizedModeSkipsAuthentication)
{
    fabric.setMode(NocMode::unauthorized);
    mesh.setNodeWorld(0, World::secure);
    fillRow(0, 0, 0x13, World::secure);
    // The insecure NoC happily delivers cross-world data.
    NocResult res = fabric.transfer(0, 0, 1, 0, 0, 1);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(fabric.authHandshakes(), 0u);
}

TEST_F(FabricFixture, TransferLatencyScalesWithDistance)
{
    fillRow(0, 0, 1, World::normal);
    NocResult near = fabric.transfer(0, 0, 1, 0, 0, 4);
    stats::Group s2("g2");
    Mesh m2(s2);
    NocFabric f2(s2, m2, NocMode::peephole);
    SpadParams p;
    p.rows = 256;
    p.row_bytes = 16;
    stats::Group g_a(s2, "a"), g_b(s2, "b");
    Scratchpad a(g_a, p), b(g_b, p);
    f2.attachScratchpad(0, &a);
    f2.attachScratchpad(9, &b);
    std::uint8_t buf[16] = {1};
    a.write(World::normal, 0, buf);
    NocResult far = f2.transfer(0, 0, 9, 0, 0, 4);
    EXPECT_GT(far.done, near.done);
}

struct SwNocFixture : ::testing::Test
{
    SwNocFixture()
        : stats("g"), mem(stats),
          swnoc(stats, mem,
                AddrRange{mem.map().npuArena(World::normal).base,
                          1u << 20})
    {
        SpadParams p;
        p.rows = 256;
        p.row_bytes = 16;
        src_group = std::make_unique<stats::Group>(stats, "src");
        dst_group = std::make_unique<stats::Group>(stats, "dst");
        src = std::make_unique<Scratchpad>(*src_group, p);
        dst = std::make_unique<Scratchpad>(*dst_group, p);
    }

    /** The value of the memory-system count @p name. */
    std::uint64_t
    count(const char *name) const
    {
        const auto *s =
            dynamic_cast<const stats::Scalar *>(stats.find(name));
        EXPECT_NE(s, nullptr) << name;
        return s ? static_cast<std::uint64_t>(s->value()) : 0;
    }

    stats::Group stats;
    MemSystem mem;
    SoftwareNoc swnoc;
    std::unique_ptr<stats::Group> src_group;
    std::unique_ptr<stats::Group> dst_group;
    std::unique_ptr<Scratchpad> src;
    std::unique_ptr<Scratchpad> dst;
};

TEST_F(SwNocFixture, DataRoundTripsThroughMemory)
{
    std::uint8_t buf[16];
    std::memset(buf, 0x3c, sizeof(buf));
    src->write(World::normal, 5, buf);
    NocResult res = swnoc.transfer(0, *src, *dst, 5, 9, 1,
                                   World::normal);
    EXPECT_TRUE(res.ok);
    std::uint8_t out[16];
    ASSERT_EQ(dst->read(World::normal, 9, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0x3c);
    EXPECT_EQ(swnoc.bytesMoved(), 16u);
}

TEST_F(SwNocFixture, SlowerThanDirectNoc)
{
    std::uint8_t buf[16] = {1};
    for (std::uint32_t r = 0; r < 32; ++r)
        src->write(World::normal, r, buf);
    NocResult sw = swnoc.transfer(0, *src, *dst, 0, 0, 32,
                                  World::normal);

    stats::Group s2("g2");
    Mesh mesh(s2);
    NocFabric fabric(s2, mesh, NocMode::unauthorized);
    SpadParams p;
    p.rows = 256;
    p.row_bytes = 16;
    stats::Group g_a(s2, "a"), g_b(s2, "b");
    Scratchpad a(g_a, p), b(g_b, p);
    fabric.attachScratchpad(0, &a);
    fabric.attachScratchpad(1, &b);
    for (std::uint32_t r = 0; r < 32; ++r)
        a.write(World::normal, r, buf);
    NocResult direct = fabric.transfer(0, 0, 1, 0, 0, 32);

    EXPECT_GT(sw.done, 2 * direct.done);
}

TEST_F(SwNocFixture, WorldRulesStillApplyToScratchpads)
{
    std::uint8_t buf[16] = {1};
    src->write(World::secure, 0, buf);
    // A normal-world transfer cannot read the secure row.
    NocResult res = swnoc.transfer(0, *src, *dst, 0, 0, 1,
                                   World::normal);
    EXPECT_FALSE(res.ok);
}

TEST_F(SwNocFixture, PartialDenialCommitsItsAccesses)
{
    // A global-scope destination whose row 5 the secure world owns:
    // a normal-world transfer of 8 rows stores all 8 to the buffer,
    // loads rows 0-5 back, and is denied writing row 5.
    SpadParams p;
    p.rows = 256;
    p.row_bytes = 16;
    p.scope = SpadScope::global;
    stats::Group global_group(stats, "global");
    Scratchpad global_dst(global_group, p);
    std::uint8_t buf[16] = {1};
    ASSERT_EQ(global_dst.write(World::secure, 5, buf), SpadStatus::ok);
    for (std::uint32_t r = 0; r < 16; ++r)
        src->write(World::normal, r, buf);

    EXPECT_FALSE(swnoc.transfer(0, *src, global_dst, 0, 0, 8,
                                World::normal)
                     .ok);
    // 14 rows issued, each inside one line of the 128-B buffer
    // window: its two lines miss once (filled from DRAM), the other
    // twelve rows hit, and nothing is written back.
    EXPECT_EQ(count("mem_accesses"), 14u);
    EXPECT_EQ(mem.l2().misses(), 2u);
    EXPECT_EQ(mem.l2().hits(), 12u);
    EXPECT_EQ(count("dram_reads"), 2u);
    EXPECT_EQ(count("dram_writes"), 0u);
    EXPECT_EQ(count("dram_bytes"), 2u * line_bytes);
    EXPECT_EQ(count("swnoc_denied"), 1u);
    EXPECT_EQ(swnoc.bytesMoved(), 0u);

    // Denied reading source row 3 (secure-owned): three stores issue.
    src->write(World::secure, 3, buf);
    EXPECT_FALSE(
        swnoc.transfer(1000, *src, *dst, 0, 0, 8, World::normal).ok);
    EXPECT_EQ(count("mem_accesses"), 17u);
    EXPECT_EQ(mem.l2().hits() + mem.l2().misses(), 17u);

    // A whole transfer adds its 16 rows.
    EXPECT_TRUE(
        swnoc.transfer(2000, *src, *dst, 8, 0, 8, World::normal).ok);
    EXPECT_EQ(count("mem_accesses"), 33u);
    EXPECT_EQ(mem.l2().hits() + mem.l2().misses(), 33u);
    EXPECT_EQ(count("dram_reads"), mem.l2().misses());
    EXPECT_EQ(count("swnoc_denied"), 2u);
}

} // namespace
} // namespace snpu
