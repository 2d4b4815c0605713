/**
 * @file
 * Unit tests for the DMA engine: packetization, access-control
 * integration at both granularities, denial handling, and functional
 * data movement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "dma/dma_engine.hh"
#include "mem/mem_system.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

/**
 * Scriptable controller for stall/denial testing. It maps a VA to
 * VA + @c shift and records the physical address every per-transfer
 * overhead charge is made at (charging nothing).
 */
class MockControl : public PassThroughControl
{
  public:
    CheckGranularity gran = CheckGranularity::packet;
    Tick stall = 0;
    bool deny = false;
    Addr shift = 0;
    std::uint64_t calls = 0;
    std::vector<Addr> overhead_pas;

    CheckGranularity granularity() const override { return gran; }

    Translation
    translate(Tick when, Addr vaddr, std::uint32_t, MemOp,
              World) override
    {
        ++calls;
        if (deny)
            return Translation{false, 0, when + stall};
        return Translation{true, vaddr + shift, when + stall};
    }

    Tick
    transferOverhead(Tick, Addr paddr, std::uint32_t, MemOp) override
    {
        overhead_pas.push_back(paddr);
        return 0;
    }
};

struct DmaFixture : ::testing::Test
{
    DmaFixture()
        : stats("g"), mem(stats), pass_through(),
          engine(stats, mem, pass_through)
    {
        base = mem.map().dram().base;
    }

    stats::Group stats;
    MemSystem mem;
    PassThroughControl pass_through;
    DmaEngine engine;
    Addr base = 0;
};

TEST_F(DmaFixture, SplitsIntoPackets)
{
    DmaRequest req{base, 1024, MemOp::read, World::normal};
    DmaResult res = engine.transfer(0, req, nullptr);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.packets, 16u); // 1024 / 64
    EXPECT_EQ(engine.totalBytes(), 1024u);
}

TEST_F(DmaFixture, NonMultiplePacketSizes)
{
    DmaRequest req{base, 100, MemOp::read, World::normal};
    DmaResult res = engine.transfer(0, req, nullptr);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.packets, 2u); // 64 + 36
    EXPECT_EQ(engine.totalBytes(), 100u);
}

TEST_F(DmaFixture, ZeroByteTransferIsNoOp)
{
    DmaRequest req{base, 0, MemOp::read, World::normal};
    DmaResult res = engine.transfer(5, req, nullptr);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.packets, 0u);
    EXPECT_EQ(res.done, 5u);
}

TEST_F(DmaFixture, RequestLevelControllerCheckedOnce)
{
    MockControl ctrl;
    ctrl.gran = CheckGranularity::request;
    stats::Group g2("g2");
    DmaEngine eng(g2, mem, ctrl);
    DmaRequest req{base, 4096, MemOp::read, World::normal};
    eng.transfer(0, req, nullptr);
    EXPECT_EQ(ctrl.calls, 1u);
}

TEST_F(DmaFixture, PacketLevelControllerCheckedPerPacket)
{
    MockControl ctrl;
    ctrl.gran = CheckGranularity::packet;
    stats::Group g2("g2");
    DmaEngine eng(g2, mem, ctrl);
    DmaRequest req{base, 4096, MemOp::read, World::normal};
    eng.transfer(0, req, nullptr);
    EXPECT_EQ(ctrl.calls, 64u);
}

TEST_F(DmaFixture, TranslationStallsDelayCompletion)
{
    MockControl fast;
    fast.gran = CheckGranularity::packet;
    stats::Group g_fast("g_fast");
    DmaEngine eng_fast(g_fast, mem, fast);
    DmaRequest req{base, 1024, MemOp::read, World::normal};
    const Tick fast_done = eng_fast.transfer(0, req, nullptr).done;

    MockControl slow;
    slow.gran = CheckGranularity::packet;
    slow.stall = 50;
    stats::Group g_slow("g_slow");
    DmaEngine eng_slow(g_slow, mem, slow);
    DmaRequest req2{base + (1u << 20), 1024, MemOp::read,
                    World::normal};
    const Tick slow_done = eng_slow.transfer(0, req2, nullptr).done;
    EXPECT_GT(slow_done, fast_done + 16 * 40);
}

TEST_F(DmaFixture, DenialAbortsTransfer)
{
    MockControl ctrl;
    ctrl.deny = true;
    stats::Group g2("g2");
    DmaEngine eng(g2, mem, ctrl);
    DmaRequest req{base, 256, MemOp::read, World::normal};
    DmaResult res = eng.transfer(0, req, nullptr);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.packets, 0u);
    EXPECT_EQ(eng.denied(), 1u);
}

TEST_F(DmaFixture, PartitionDenialAbortsTransfer)
{
    DmaRequest req{mem.map().secureRegion().base, 128, MemOp::read,
                   World::normal};
    DmaResult res = engine.transfer(0, req, nullptr);
    EXPECT_FALSE(res.ok);
}

TEST_F(DmaFixture, FunctionalReadMovesBytes)
{
    const char *msg = "dma-functional-read";
    mem.data().write(base + 0x100, msg, 20);
    DmaRequest req{base + 0x100, 64, MemOp::read, World::normal};
    std::vector<std::uint8_t> buffer;
    engine.transfer(0, req, &buffer);
    ASSERT_EQ(buffer.size(), 64u);
    EXPECT_EQ(std::memcmp(buffer.data(), msg, 20), 0);
}

TEST_F(DmaFixture, FunctionalWriteMovesBytes)
{
    std::vector<std::uint8_t> buffer(128, 0x7e);
    DmaRequest req{base + 0x2000, 128, MemOp::write, World::normal};
    engine.transfer(0, req, &buffer);
    EXPECT_EQ(mem.data().read8(base + 0x2000), 0x7e);
    EXPECT_EQ(mem.data().read8(base + 0x2000 + 127), 0x7e);
}

TEST_F(DmaFixture, ThroughputBoundedByMemoryBandwidth)
{
    DmaRequest req{base + (2u << 20), 1u << 16, MemOp::read,
                   World::normal};
    DmaResult res = engine.transfer(0, req, nullptr);
    // 64 KiB at 16 B/cycle needs at least 4096 cycles.
    EXPECT_GE(res.done, 4096u);
}

TEST_F(DmaFixture, BatchOverheadSeesPhysicalAddress)
{
    // Packet-granular: the overhead of each stream is charged at the
    // physical address of its first packet, never at its VA.
    MockControl ctrl;
    ctrl.shift = base;
    stats::Group g2("g2");
    DmaEngine eng(g2, mem, ctrl);
    const std::vector<DmaRequest> reqs = {
        {0x1000, 256, MemOp::read, World::normal},
        {0x2f80, 300, MemOp::write, World::normal},
    };
    const DmaResult res = eng.transferBatch(0, reqs, {nullptr, nullptr});
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(ctrl.overhead_pas,
              (std::vector<Addr>{base + 0x1000, base + 0x2f80}));
}

/**
 * transferBatch's round-robin loop written the plainest way: every
 * packet through MemSystem::access (or accessUncached), one stat
 * bump per packet, the streams revisited modulo the request count.
 * Its stats register under the engine's names and in the engine's
 * order, so the two stat trees dump the same JSON when they agree.
 * The controllers used with it charge no transfer overhead.
 */
class ReferenceBatch
{
  public:
    ReferenceBatch(stats::Group &g, MemSystem &mem,
                   ProtectionBackend &ctrl, bool through_l2)
        : mem(mem), ctrl(ctrl), through_l2(through_l2),
          requests(g, "dma_requests", ""),
          packets(g, "dma_packets", ""),
          bytes(g, "dma_bytes", ""),
          denied(g, "dma_denied", ""),
          faulted(g, "dma_faulted", ""),
          stall(g, "dma_stall", "")
    {
    }

    DmaResult
    run(Tick when, const std::vector<DmaRequest> &reqs)
    {
        DmaResult result;
        result.done = when;
        struct Stream
        {
            const DmaRequest *req;
            Translation xl;
            std::uint32_t offset;
        };
        std::vector<Stream> streams;
        const bool per_request =
            ctrl.granularity() == CheckGranularity::request;
        for (const DmaRequest &req : reqs) {
            ++requests;
            if (req.bytes == 0)
                continue;
            Stream s{&req, Translation{true, req.vaddr, when}, 0};
            if (per_request) {
                s.xl = ctrl.translate(when, req.vaddr, req.bytes,
                                      req.op, req.world);
                if (!s.xl.ok) {
                    ++denied;
                    result.ok = false;
                    return result;
                }
            }
            streams.push_back(s);
        }

        Tick t_req = when;
        Tick issue = when;
        std::size_t live = streams.size();
        std::size_t rr = 0;
        while (live > 0) {
            Stream &s = streams[rr++ % streams.size()];
            if (s.offset >= s.req->bytes)
                continue;
            std::uint32_t chunk =
                std::min<std::uint32_t>(64, s.req->bytes - s.offset);
            Addr pa;
            if (per_request) {
                pa = s.xl.paddr + s.offset;
                if (s.offset == 0)
                    issue = std::max(issue, s.xl.ready);
            } else {
                const Addr va = s.req->vaddr + s.offset;
                chunk = static_cast<std::uint32_t>(std::min<Addr>(
                    chunk, page_bytes - va % page_bytes));
                const Translation xl = ctrl.translate(
                    t_req, va, chunk, s.req->op, s.req->world);
                t_req += 1;
                if (!xl.ok) {
                    ++denied;
                    result.ok = false;
                    result.done = t_req;
                    return result;
                }
                issue = std::max(issue, xl.ready);
                pa = xl.paddr;
            }
            const MemRequest mreq{pa, chunk, s.req->op, s.req->world};
            const MemResult mres = through_l2
                                       ? mem.access(issue, mreq)
                                       : mem.accessUncached(issue, mreq);
            if (!mres.ok) {
                ++denied;
                result.ok = false;
                result.done = issue;
                return result;
            }
            ++packets;
            ++result.packets;
            bytes += chunk;
            result.done = std::max(result.done, mres.done);
            issue += 1;
            s.offset += chunk;
            if (s.offset >= s.req->bytes)
                --live;
        }
        result.done = std::max(result.done, issue);
        return result;
    }

  private:
    MemSystem &mem;
    ProtectionBackend &ctrl;
    bool through_l2;
    stats::Scalar requests;
    stats::Scalar packets;
    stats::Scalar bytes;
    stats::Scalar denied;
    stats::Scalar faulted;
    stats::Average stall;
};

/**
 * Run @p reqs as three batches (the later ones partly hit in the L2,
 * the last one overlapping the DRAM backlog) through the engine and
 * through ReferenceBatch on an identical memory system, and compare
 * every result and the whole stat tree.
 */
void
expectBatchMatchesReference(CheckGranularity gran, Tick stall,
                            bool through_l2,
                            const std::vector<DmaRequest> &reqs)
{
    DmaParams params;
    params.through_l2 = through_l2;
    stats::Group got_stats("g");
    MemSystem got_mem(got_stats);
    MockControl got_ctrl;
    got_ctrl.gran = gran;
    got_ctrl.stall = stall;
    DmaEngine engine(got_stats, got_mem, got_ctrl, params);

    stats::Group want_stats("g");
    MemSystem want_mem(want_stats);
    MockControl want_ctrl;
    want_ctrl.gran = gran;
    want_ctrl.stall = stall;
    ReferenceBatch ref(want_stats, want_mem, want_ctrl, through_l2);

    const std::vector<std::vector<std::uint8_t> *> no_buffers(
        reqs.size(), nullptr);
    Tick when = 0;
    for (int pass = 0; pass < 3; ++pass) {
        SCOPED_TRACE(testing::Message() << "pass " << pass);
        const DmaResult got = engine.transferBatch(when, reqs, no_buffers);
        const DmaResult want = ref.run(when, reqs);
        EXPECT_EQ(got.ok, want.ok);
        EXPECT_EQ(got.done, want.done);
        EXPECT_EQ(got.packets, want.packets);
        when = pass == 0 ? want.done : want.done / 2;
    }
    std::ostringstream got_json;
    std::ostringstream want_json;
    got_stats.dumpJson(got_json);
    want_stats.dumpJson(want_json);
    EXPECT_EQ(got_json.str(), want_json.str());
}

TEST_F(DmaFixture, BatchMatchesPerPacketReference)
{
    const auto read = [](Addr va, std::uint32_t bytes) {
        return DmaRequest{va, bytes, MemOp::read, World::normal};
    };
    const auto write = [](Addr va, std::uint32_t bytes) {
        return DmaRequest{va, bytes, MemOp::write, World::normal};
    };
    {
        SCOPED_TRACE("unequal lengths, a zero-byte stream, a stall");
        expectBatchMatchesReference(
            CheckGranularity::request, 5, true,
            {read(base, 4096), read(base + 0x10000, 0),
             write(base + 0x20000, 700), read(base + 0x30000, 64),
             read(base + 0x40000, 2000)});
    }
    {
        SCOPED_TRACE("unaligned PA: packets span two lines");
        expectBatchMatchesReference(
            CheckGranularity::request, 0, true,
            {read(base + 0x1020, 1000), write(base + 0x5007, 333)});
    }
    {
        SCOPED_TRACE("packet-granular, stall and page crossing");
        expectBatchMatchesReference(
            CheckGranularity::packet, 3, true,
            {read(base + page_bytes - 100, 500),
             write(base + 3 * page_bytes - 30, 4200),
             read(base + 0x9000, 64)});
    }
    {
        // The third stream's sixth packet is its first secure byte:
        // the batch stops there, with every stream's partial counts.
        SCOPED_TRACE("pass-through stream walks into the secure region");
        const Addr secure = mem.map().secureRegion().base;
        expectBatchMatchesReference(
            CheckGranularity::request, 0, true,
            {read(base, 2048), write(base + 0x8000, 2048),
             read(secure - 5 * 64, 1024), read(base + 0x10000, 512)});
    }
    {
        SCOPED_TRACE("packet-granular stream walks into the secure region");
        const Addr secure = mem.map().secureRegion().base;
        expectBatchMatchesReference(
            CheckGranularity::packet, 1, true,
            {read(base, 1024), read(secure - 7 * 64, 1024)});
    }
    {
        SCOPED_TRACE("through_l2 = false");
        expectBatchMatchesReference(
            CheckGranularity::request, 2, false,
            {read(base, 3000), write(base + 0x7010, 1500),
             read(base + 0x20000, 0)});
    }
}

} // namespace
} // namespace snpu
