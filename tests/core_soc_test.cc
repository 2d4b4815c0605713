/**
 * @file
 * Tests for the assembled SoC: the three comparative systems and
 * their driver-visible security semantics.
 */

#include <gtest/gtest.h>

#include "core/soc.hh"
#include "sim/logging.hh"

namespace snpu
{
namespace
{

TEST(SocBuild, NormalNpu)
{
    Soc soc(makeSystem(SystemKind::normal_npu));
    EXPECT_FALSE(soc.hasMonitor());
    EXPECT_THROW(soc.monitor(), PanicError);
    EXPECT_EQ(soc.protection(0).name(), "passthrough");
    EXPECT_EQ(soc.protection(0).asGuarder(), nullptr);
    EXPECT_EQ(soc.npu().tiles(), 10u);
}

TEST(SocBuild, TrustzoneNpu)
{
    Soc soc(makeSystem(SystemKind::trustzone_npu));
    EXPECT_FALSE(soc.hasMonitor());
    EXPECT_EQ(soc.protection(9).name(), "iommu"); // one per tile
    soc.pageTable();
    EXPECT_THROW(soc.protection(10), PanicError);
}

TEST(SocBuild, Snpu)
{
    Soc soc(makeSystem(SystemKind::snpu));
    EXPECT_TRUE(soc.hasMonitor());
    EXPECT_NE(soc.protection(9).asGuarder(), nullptr);
    soc.monitor();
    EXPECT_THROW(soc.pageTable(), PanicError);
}

TEST(SocBuild, PartitionModeAppliesBoundary)
{
    SocParams params = makeSystem(SystemKind::trustzone_npu);
    params.spad_isolation = IsolationMode::partition;
    params.partition_secure_frac = 0.25;
    Soc soc(params);
    Scratchpad &spad = soc.npu().core(0).scratchpad();
    EXPECT_EQ(spad.usableRows(World::secure), params.spadRows() / 4);
    EXPECT_EQ(spad.usableRows(World::normal),
              params.spadRows() * 3 / 4);
}

TEST(SocBuild, DescribeMentionsSystem)
{
    SocParams params = makeSystem(SystemKind::snpu);
    EXPECT_NE(params.describe().find("snpu"), std::string::npos);
    EXPECT_NE(makeSystem(SystemKind::trustzone_npu)
                  .describe()
                  .find("iommu"),
              std::string::npos);
}

TEST(SocSecurity, NormalNpuLetsDriverFlipWorlds)
{
    Soc soc(makeSystem(SystemKind::normal_npu));
    // The unprotected NPU trusts the driver: this is the missing
    // check the attacks exploit.
    EXPECT_TRUE(soc.driverSetCoreWorld(0, World::secure,
                                       SecureContext::normalDriver()));
    EXPECT_EQ(soc.npu().core(0).idState(), World::secure);
}

TEST(SocSecurity, SnpuRequiresSecurePrivilege)
{
    Soc soc(makeSystem(SystemKind::snpu));
    EXPECT_FALSE(soc.driverSetCoreWorld(
        0, World::secure, SecureContext::normalDriver()));
    EXPECT_EQ(soc.npu().core(0).idState(), World::normal);
    EXPECT_TRUE(soc.driverSetCoreWorld(0, World::secure,
                                       SecureContext::monitor()));
    EXPECT_EQ(soc.npu().core(0).idState(), World::secure);
}

TEST(SocSecurity, SnpuRequiresGuarderBackend)
{
    SocParams params = makeSystem(SystemKind::snpu);
    params.protection = "passthrough";
    EXPECT_THROW(Soc soc(params), FatalError);
}

TEST(SocConfig, DerivedValues)
{
    SocParams params = makeSystem(SystemKind::snpu);
    EXPECT_EQ(params.spadRows(), 16384u);
    EXPECT_DOUBLE_EQ(params.dramBytesPerCycle(), 16.0);
}

} // namespace
} // namespace snpu
