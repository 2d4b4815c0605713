/**
 * @file
 * Unit tests for the multi-tile NPU device assembly.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "npu/npu_device.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

struct DeviceFixture : ::testing::Test
{
    DeviceFixture()
        : stats("g"), mem(stats)
    {
        for (std::uint32_t i = 0; i < 10; ++i)
            controls.push_back(std::make_unique<PassThroughControl>());
        std::vector<ProtectionBackend *> raw;
        for (auto &c : controls)
            raw.push_back(c.get());
        NpuDeviceParams p;
        p.core.spad_rows = 512;
        p.core.acc_rows = 128;
        device = std::make_unique<NpuDevice>(stats, mem, raw, p);
    }

    stats::Group stats;
    MemSystem mem;
    std::vector<std::unique_ptr<PassThroughControl>> controls;
    std::unique_ptr<NpuDevice> device;
};

TEST_F(DeviceFixture, GeometryMatchesTableII)
{
    EXPECT_EQ(device->tiles(), 10u);
    EXPECT_EQ(device->mesh().nodes(), 10u);
    EXPECT_EQ(device->mesh().cols(), 5u);
    EXPECT_EQ(device->mesh().meshRows(), 2u);
    for (std::uint32_t i = 0; i < 10; ++i)
        EXPECT_EQ(device->core(i).id(), i);
}

TEST_F(DeviceFixture, CoreIndexOutOfRangePanics)
{
    EXPECT_THROW(device->core(10), PanicError);
}

TEST_F(DeviceFixture, SetCoreWorldSyncsMesh)
{
    EXPECT_TRUE(device->setCoreWorld(3, World::secure, true));
    EXPECT_EQ(device->core(3).idState(), World::secure);
    EXPECT_EQ(device->mesh().nodeWorld(3), World::secure);
    // Unprivileged change rejected, state unchanged.
    EXPECT_FALSE(device->setCoreWorld(3, World::normal, false));
    EXPECT_EQ(device->core(3).idState(), World::secure);
}

TEST_F(DeviceFixture, SoftwareTransferMovesRows)
{
    std::uint8_t row[16];
    std::memset(row, 0x2b, sizeof(row));
    ASSERT_EQ(device->core(0).scratchpad().write(World::normal, 4, row),
              SpadStatus::ok);
    NocResult res = device->softwareTransfer(0, 0, 1, 4, 8, 1);
    EXPECT_TRUE(res.ok);
    std::uint8_t out[16];
    ASSERT_EQ(device->core(1).scratchpad().read(World::normal, 8, out),
              SpadStatus::ok);
    EXPECT_EQ(out[0], 0x2b);
}

TEST_F(DeviceFixture, GlobalScratchpadSharedRules)
{
    Scratchpad &global = device->globalScratchpad();
    EXPECT_EQ(global.scope(), SpadScope::global);
    std::uint8_t row[16] = {1};
    ASSERT_EQ(global.write(World::secure, 0, row), SpadStatus::ok);
    EXPECT_EQ(global.read(World::normal, 0, nullptr),
              SpadStatus::security_violation);
}

TEST(DeviceConfig, MismatchedControllersFatal)
{
    stats::Group stats("g");
    MemSystem mem(stats);
    PassThroughControl one;
    std::vector<ProtectionBackend *> raw{&one};
    NpuDeviceParams p; // 10 tiles
    EXPECT_THROW(NpuDevice(stats, mem, raw, p), FatalError);
}

TEST(DeviceConfig, MeshMustCoverTiles)
{
    stats::Group stats("g");
    MemSystem mem(stats);
    std::vector<std::unique_ptr<PassThroughControl>> controls;
    std::vector<ProtectionBackend *> raw;
    for (int i = 0; i < 4; ++i) {
        controls.push_back(std::make_unique<PassThroughControl>());
        raw.push_back(controls.back().get());
    }
    NpuDeviceParams p;
    p.tiles = 4;
    p.mesh.cols = 5;
    p.mesh.rows = 2;
    EXPECT_THROW(NpuDevice(stats, mem, raw, p), FatalError);
    p.mesh.cols = 2;
    p.mesh.rows = 2;
    p.core.spad_rows = 256;
    p.core.acc_rows = 64;
    NpuDevice ok(stats, mem, raw, p);
    EXPECT_EQ(ok.tiles(), 4u);
}

} // namespace
} // namespace snpu
