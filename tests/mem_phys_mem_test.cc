/**
 * @file
 * Unit tests for the sparse functional memory.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/phys_mem.hh"

namespace snpu
{
namespace
{

TEST(PhysMem, UntouchedMemoryReadsZero)
{
    PhysMem mem;
    std::uint8_t buf[16];
    std::memset(buf, 0xff, sizeof(buf));
    mem.read(0x1234, buf, sizeof(buf));
    for (std::uint8_t b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(mem.touchedPages(), 0u);
}

TEST(PhysMem, RoundTripWithinPage)
{
    PhysMem mem;
    const char *msg = "hello scratchpad";
    mem.write(0x100, msg, 17);
    char out[17];
    mem.read(0x100, out, 17);
    EXPECT_STREQ(out, msg);
}

TEST(PhysMem, RoundTripAcrossPageBoundary)
{
    PhysMem mem;
    std::vector<std::uint8_t> data(10000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    const Addr addr = PhysMem::page_size - 123;
    mem.write(addr, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size());
    mem.read(addr, out.data(), out.size());
    EXPECT_EQ(out, data);
    EXPECT_GE(mem.touchedPages(), 3u);
}

TEST(PhysMem, TypedAccessors)
{
    PhysMem mem;
    mem.write8(0x10, 0xab);
    mem.write32(0x20, 0xdeadbeef);
    mem.write64(0x30, 0x1122334455667788ULL);
    EXPECT_EQ(mem.read8(0x10), 0xab);
    EXPECT_EQ(mem.read32(0x20), 0xdeadbeefu);
    EXPECT_EQ(mem.read64(0x30), 0x1122334455667788ULL);
}

TEST(PhysMem, FillSetsRange)
{
    PhysMem mem;
    mem.fill(PhysMem::page_size - 8, 16, 0x5a);
    for (Addr a = PhysMem::page_size - 8; a < PhysMem::page_size + 8;
         ++a) {
        EXPECT_EQ(mem.read8(a), 0x5a);
    }
    EXPECT_EQ(mem.read8(PhysMem::page_size + 8), 0);
}

TEST(PhysMem, OverwriteReplacesBytes)
{
    PhysMem mem;
    mem.write32(0x40, 0x11111111);
    mem.write32(0x40, 0x22222222);
    EXPECT_EQ(mem.read32(0x40), 0x22222222u);
}

TEST(PhysMem, HighAddressesWork)
{
    PhysMem mem;
    const Addr high = 0xffff'ffff'0000ULL;
    mem.write64(high, 42);
    EXPECT_EQ(mem.read64(high), 42u);
}

TEST(PhysMem, ZeroFillClearsPresentPagesOnly)
{
    PhysMem mem;
    constexpr Addr page = PhysMem::page_size;
    // Page 1 is present and dirty; pages 0 and 2 are absent.
    mem.fill(page, page, 0x77);
    ASSERT_EQ(mem.touchedPages(), 1u);

    // A range from mid page 0 to mid page 2.
    mem.fill(page / 2, 2 * page, 0);
    EXPECT_EQ(mem.touchedPages(), 1u);
    std::vector<std::uint8_t> out(3 * page, 0xff);
    mem.read(0, out.data(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], 0) << "byte " << i;
    EXPECT_EQ(mem.touchedPages(), 1u);
}

TEST(PhysMem, ZeroFillKeepsBytesOutsideTheRange)
{
    PhysMem mem;
    mem.fill(0, 256, 0x5a);
    mem.fill(64, 128, 0);
    EXPECT_EQ(mem.read8(63), 0x5a);
    EXPECT_EQ(mem.read8(64), 0);
    EXPECT_EQ(mem.read8(191), 0);
    EXPECT_EQ(mem.read8(192), 0x5a);
    mem.fill(0, 0, 0); // empty range: nothing happens
    EXPECT_EQ(mem.read8(0), 0x5a);
}

} // namespace
} // namespace snpu
