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
#include <string>
#include <vector>

#include "dma/dma_engine.hh"
#include "guarder/guarder.hh"
#include "mem/mem_system.hh"
#include "mem_access.hh"
#include "sim/random.hh"
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
 * The engine's two entry points written the plainest way: every
 * packet through timedAccess(), one stat bump per packet. Its
 * stats register under the engine's names and in the engine's order,
 * so the two stat trees dump the same JSON when they agree. The
 * controllers used with it charge no transfer overhead.
 */
class ReferenceDma
{
  public:
    ReferenceDma(stats::Group &g, MemSystem &mem, ProtectionBackend &ctrl,
                 FaultInjector *faults = nullptr)
        : mem(mem), ctrl(ctrl), faults(faults),
          requests(g, "dma_requests", ""),
          packets(g, "dma_packets", ""),
          bytes(g, "dma_bytes", ""),
          denied(g, "dma_denied", ""),
          faulted(g, "dma_faulted", ""),
          stall(g, "dma_stall", "")
    {
    }

    /**
     * transferBatch(): the streams revisited modulo the request
     * count.
     */
    DmaResult
    batch(Tick when, const std::vector<DmaRequest> &reqs)
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
            const MemResult mres =
                timedAccess(mem, issue,
                            MemRequest{pa, chunk, s.req->op, s.req->world});
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

    /**
     * transfer(): one loop per check granularity, each the shape of
     * the hardware it models.
     */
    DmaResult
    transfer(Tick when, const DmaRequest &req,
             std::vector<std::uint8_t> *buffer)
    {
        ++requests;
        if (req.bytes == 0)
            return DmaResult{when, true, false, 0};
        if (faults && faults->shouldInject(FaultSite::dma_transfer, when)) {
            ++faulted;
            return DmaResult{when, false, true, 0};
        }
        if (buffer && req.op == MemOp::read)
            buffer->assign(req.bytes, 0);
        return ctrl.granularity() == CheckGranularity::request
                   ? perRequest(when, req, buffer)
                   : perPacket(when, req, buffer);
    }

  private:
    /**
     * Guarder: one check for the whole request, unclamped packets,
     * and the bytes move only once every packet has issued.
     */
    DmaResult
    perRequest(Tick when, const DmaRequest &req,
               std::vector<std::uint8_t> *buffer)
    {
        const Translation xl =
            ctrl.translate(when, req.vaddr, req.bytes, req.op, req.world);
        if (!xl.ok) {
            ++denied;
            return DmaResult{when, false, false, 0};
        }
        DmaResult result;
        Tick issue = xl.ready;
        for (std::uint32_t offset = 0; offset < req.bytes; offset += 64) {
            const std::uint32_t chunk =
                std::min<std::uint32_t>(64, req.bytes - offset);
            const MemResult mres = timedAccess(
                mem, issue,
                MemRequest{xl.paddr + offset, chunk, req.op, req.world});
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
        }
        if (buffer && req.op == MemOp::read)
            mem.data().read(xl.paddr, buffer->data(), req.bytes);
        else if (buffer)
            mem.data().write(xl.paddr, buffer->data(), req.bytes);
        stall.sample(0.0);
        result.done = std::max(result.done, issue);
        result.done +=
            ctrl.transferOverhead(result.done, xl.paddr, req.bytes, req.op);
        return result;
    }

    /**
     * IOMMU: one translation per packet at its issue tick, each
     * packet stopped at its page end and moving its own bytes.
     */
    DmaResult
    perPacket(Tick when, const DmaRequest &req,
              std::vector<std::uint8_t> *buffer)
    {
        DmaResult result;
        Tick issue = when;
        Tick stalled = 0;
        Addr first_pa = 0;
        std::uint32_t offset = 0;
        while (offset < req.bytes) {
            const Addr va = req.vaddr + offset;
            const std::uint32_t chunk = static_cast<std::uint32_t>(
                std::min<Addr>({64, req.bytes - offset,
                                page_bytes - va % page_bytes}));
            const Translation xl =
                ctrl.translate(issue, va, chunk, req.op, req.world);
            if (!xl.ok) {
                ++denied;
                result.ok = false;
                result.done = issue;
                return result;
            }
            stalled += xl.ready - issue;
            issue = xl.ready;
            if (offset == 0)
                first_pa = xl.paddr;
            const MemResult mres = timedAccess(
                mem, issue,
                MemRequest{xl.paddr, chunk, req.op, req.world});
            if (!mres.ok) {
                ++denied;
                result.ok = false;
                result.done = issue;
                return result;
            }
            if (buffer && req.op == MemOp::read)
                mem.data().read(xl.paddr, buffer->data() + offset, chunk);
            else if (buffer)
                mem.data().write(xl.paddr, buffer->data() + offset, chunk);
            ++packets;
            ++result.packets;
            bytes += chunk;
            result.done = std::max(result.done, mres.done);
            issue += 1;
            offset += chunk;
        }
        stall.sample(static_cast<double>(stalled));
        result.done = std::max(result.done, issue);
        result.done +=
            ctrl.transferOverhead(result.done, first_pa, req.bytes, req.op);
        return result;
    }

    MemSystem &mem;
    ProtectionBackend &ctrl;
    FaultInjector *faults;
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
 * through ReferenceDma on an identical memory system, and compare
 * every result and the whole stat tree.
 */
void
expectBatchMatchesReference(CheckGranularity gran, Tick stall,
                            const std::vector<DmaRequest> &reqs)
{
    stats::Group got_stats("g");
    MemSystem got_mem(got_stats);
    MockControl got_ctrl;
    got_ctrl.gran = gran;
    got_ctrl.stall = stall;
    DmaEngine engine(got_stats, got_mem, got_ctrl);

    stats::Group want_stats("g");
    MemSystem want_mem(want_stats);
    MockControl want_ctrl;
    want_ctrl.gran = gran;
    want_ctrl.stall = stall;
    ReferenceDma ref(want_stats, want_mem, want_ctrl);

    const std::vector<std::vector<std::uint8_t> *> no_buffers(
        reqs.size(), nullptr);
    Tick when = 0;
    for (int pass = 0; pass < 3; ++pass) {
        SCOPED_TRACE(testing::Message() << "pass " << pass);
        const DmaResult got = engine.transferBatch(when, reqs, no_buffers);
        const DmaResult want = ref.batch(when, reqs);
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
            CheckGranularity::request, 5,
            {read(base, 4096), read(base + 0x10000, 0),
             write(base + 0x20000, 700), read(base + 0x30000, 64),
             read(base + 0x40000, 2000)});
    }
    {
        SCOPED_TRACE("unaligned PA: packets span two lines");
        expectBatchMatchesReference(
            CheckGranularity::request, 0,
            {read(base + 0x1020, 1000), write(base + 0x5007, 333)});
    }
    {
        SCOPED_TRACE("packet-granular, stall and page crossing");
        expectBatchMatchesReference(
            CheckGranularity::packet, 3,
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
            CheckGranularity::request, 0,
            {read(base, 2048), write(base + 0x8000, 2048),
             read(secure - 5 * 64, 1024), read(base + 0x10000, 512)});
    }
    {
        SCOPED_TRACE("packet-granular stream walks into the secure region");
        const Addr secure = mem.map().secureRegion().base;
        expectBatchMatchesReference(
            CheckGranularity::packet, 1,
            {read(base, 1024), read(secure - 7 * 64, 1024)});
    }
}

/**
 * Run @p reqs one after another (each but the first starting inside
 * the previous one's DRAM backlog or right after it) through
 * transfer() and through ReferenceDma on identical memory systems,
 * with functional buffers and memory prefilled with a pattern, and
 * compare every result, the bytes moved, the controller's calls and
 * overhead PAs, and the whole stat tree. Both sides arm an injector
 * built from @p plan.
 */
void
expectTransferMatchesReference(CheckGranularity gran, Tick stall,
                               const std::vector<DmaRequest> &reqs,
                               const FaultPlan &plan = {})
{
    stats::Group got_stats("g");
    MemSystem got_mem(got_stats);
    MockControl got_ctrl;
    got_ctrl.gran = gran;
    got_ctrl.stall = stall;
    DmaEngine engine(got_stats, got_mem, got_ctrl);
    FaultInjector got_faults(plan);
    engine.armFaults(&got_faults);

    stats::Group want_stats("g");
    MemSystem want_mem(want_stats);
    MockControl want_ctrl;
    want_ctrl.gran = gran;
    want_ctrl.stall = stall;
    FaultInjector want_faults(plan);
    ReferenceDma ref(want_stats, want_mem, want_ctrl, &want_faults);

    for (const DmaRequest &req : reqs) {
        for (std::uint32_t i = 0; i < req.bytes; ++i) {
            const auto b = static_cast<std::uint8_t>(i * 7 + 1);
            got_mem.data().write(req.vaddr + i, &b, 1);
            want_mem.data().write(req.vaddr + i, &b, 1);
        }
    }

    Tick when = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "request " << i);
        const DmaRequest &req = reqs[i];
        const auto fill = static_cast<std::uint8_t>(0xa0 + i);
        std::vector<std::uint8_t> got_buf(req.bytes, fill);
        std::vector<std::uint8_t> want_buf(req.bytes, fill);
        const DmaResult got = engine.transfer(when, req, &got_buf);
        const DmaResult want = ref.transfer(when, req, &want_buf);
        EXPECT_EQ(got.ok, want.ok);
        EXPECT_EQ(got.fault, want.fault);
        EXPECT_EQ(got.done, want.done);
        EXPECT_EQ(got.packets, want.packets);
        EXPECT_EQ(got_buf, want_buf);
        when = i % 2 ? want.done : want.done / 2;
    }
    for (const DmaRequest &req : reqs) {
        std::vector<std::uint8_t> got(req.bytes);
        std::vector<std::uint8_t> want(req.bytes);
        got_mem.data().read(req.vaddr, got.data(), req.bytes);
        want_mem.data().read(req.vaddr, want.data(), req.bytes);
        EXPECT_EQ(got, want) << "memory at va 0x" << std::hex << req.vaddr;
    }
    EXPECT_EQ(got_ctrl.calls, want_ctrl.calls);
    EXPECT_EQ(got_ctrl.overhead_pas, want_ctrl.overhead_pas);
    std::ostringstream got_json;
    std::ostringstream want_json;
    got_stats.dumpJson(got_json);
    want_stats.dumpJson(want_json);
    EXPECT_EQ(got_json.str(), want_json.str());
}

TEST_F(DmaFixture, TransferMatchesPerPacketReference)
{
    const auto read = [](Addr va, std::uint32_t bytes) {
        return DmaRequest{va, bytes, MemOp::read, World::normal};
    };
    const auto write = [](Addr va, std::uint32_t bytes) {
        return DmaRequest{va, bytes, MemOp::write, World::normal};
    };
    const Addr secure = mem.map().secureRegion().base;
    FaultPlan second_faults;
    second_faults.faults.push_back(FaultSpec{});
    second_faults.faults.back().nth = 2;
    for (const CheckGranularity gran :
         {CheckGranularity::request, CheckGranularity::packet}) {
        SCOPED_TRACE(gran == CheckGranularity::request ? "request-granular"
                                                       : "packet-granular");
        {
            SCOPED_TRACE("a stall, the later requests hitting in the L2");
            expectTransferMatchesReference(
                gran, 5,
                {read(base, 4096), write(base + 0x20000, 700),
                 read(base, 2000), read(base + 0x20000, 64)});
        }
        {
            // Only the packet path stops a packet at the page end.
            SCOPED_TRACE("unaligned request crossing a page");
            expectTransferMatchesReference(
                gran, 0,
                {read(base + page_bytes - 100, 500),
                 write(base + 3 * page_bytes - 30, 4200)});
        }
        {
            // The read's sixth and the write's fourth packet are the
            // first secure bytes: each stops there with partial
            // totals, and only the packet path has moved bytes.
            SCOPED_TRACE("partition denial partway");
            expectTransferMatchesReference(
                gran, 1,
                {read(secure - 5 * 64, 1024),
                 write(secure - 3 * 64, 512), read(base, 256)});
        }
        {
            SCOPED_TRACE("a zero-byte request");
            expectTransferMatchesReference(
                gran, 2, {read(base, 0), write(base + 0x100, 300)});
        }
        {
            SCOPED_TRACE("an injected transfer fault");
            expectTransferMatchesReference(
                gran, 0,
                {read(base, 512), write(base + 0x4000, 512),
                 read(base + 0x8000, 128)},
                second_faults);
        }
    }
}

/**
 * transferBatch() keeps its per-stream state in engine scratch that
 * outlives the call. Batches of different shapes, including one that
 * stops mid-stream with streams still live, run one after another on
 * one engine; each must match the same batch on a fresh engine and
 * memory system, down to the stat tree.
 */
TEST_F(DmaFixture, BatchScratchReuseMatchesFreshEngine)
{
    const auto read = [](Addr va, std::uint32_t bytes) {
        return DmaRequest{va, bytes, MemOp::read, World::normal};
    };
    const auto write = [](Addr va, std::uint32_t bytes) {
        return DmaRequest{va, bytes, MemOp::write, World::normal};
    };
    const Addr secure = mem.map().secureRegion().base;
    struct Batch
    {
        const char *what;
        CheckGranularity gran;
        std::vector<DmaRequest> reqs;
        bool ok;
    };
    const Batch batches[] = {
        {"four streams", CheckGranularity::request,
         {read(base, 4096), write(base + 0x20000, 700),
          read(base + 0x30000, 64), read(base + 0x40000, 2000)},
         true},
        {"one stream", CheckGranularity::request,
         {read(base + 0x50000, 1000)}, true},
        {"denied mid-stream", CheckGranularity::request,
         {read(base, 2048), read(secure - 2 * 64, 512),
          write(base + 0x8000, 1024)},
         false},
        {"packet-granular", CheckGranularity::packet,
         {read(base + page_bytes - 100, 500), write(base + 0x9000, 300)},
         true},
    };

    stats::Group reused_stats("g");
    MemSystem reused_mem(reused_stats);
    MockControl reused_ctrl;
    DmaEngine reused(reused_stats, reused_mem, reused_ctrl);
    for (const Batch &b : batches) {
        SCOPED_TRACE(b.what);
        std::vector<std::vector<std::uint8_t>> got_data(b.reqs.size());
        std::vector<std::vector<std::uint8_t>> want_data(b.reqs.size());
        std::vector<std::vector<std::uint8_t> *> got_bufs;
        std::vector<std::vector<std::uint8_t> *> want_bufs;
        for (std::size_t i = 0; i < b.reqs.size(); ++i) {
            got_data[i].assign(b.reqs[i].bytes, 0x5a);
            want_data[i].assign(b.reqs[i].bytes, 0x5a);
            got_bufs.push_back(&got_data[i]);
            want_bufs.push_back(&want_data[i]);
        }

        reused_mem.canonicalizeTiming();
        reused_stats.resetAll();
        reused_ctrl.gran = b.gran;
        const DmaResult got = reused.transferBatch(7, b.reqs, got_bufs);

        stats::Group fresh_stats("g");
        MemSystem fresh_mem(fresh_stats);
        MockControl fresh_ctrl;
        fresh_ctrl.gran = b.gran;
        DmaEngine fresh(fresh_stats, fresh_mem, fresh_ctrl);
        const DmaResult want = fresh.transferBatch(7, b.reqs, want_bufs);

        EXPECT_EQ(want.ok, b.ok);
        EXPECT_EQ(got.ok, want.ok);
        EXPECT_EQ(got.fault, want.fault);
        EXPECT_EQ(got.done, want.done);
        EXPECT_EQ(got.packets, want.packets);
        EXPECT_EQ(got_data, want_data);
        std::ostringstream got_json;
        std::ostringstream want_json;
        reused_stats.dumpJson(got_json);
        fresh_stats.dumpJson(want_json);
        EXPECT_EQ(got_json.str(), want_json.str());
    }
}

/**
 * One side of the Guarder exactness test: a memory system and a
 * Guarder whose one translation register maps VA guarded_va onward
 * onto all of DRAM and whose one window grants it to either world, so
 * the Guarder passes every request inside the map and only the world
 * partition denies.
 */
struct GuardedSoc
{
    static constexpr Addr guarded_va = 0x4000'0000;

    GuardedSoc() : stats("soc"), mem(stats), guard(stats)
    {
        const AddrRange dram = mem.map().dram();
        EXPECT_TRUE(guard.setTranslationRegister(0, guarded_va, dram.base,
                                                 dram.size, true));
        EXPECT_TRUE(guard.setCheckingRegister(0, dram, GuardPerm::rw(),
                                              World::normal, true));
    }

    /** The value of the scalar stat @p name in this SoC's tree. */
    double
    scalar(const std::string &name) const
    {
        const auto *s =
            dynamic_cast<const stats::Scalar *>(stats.find(name));
        EXPECT_NE(s, nullptr) << name;
        return s ? s->value() : -1;
    }

    stats::Group stats;
    MemSystem mem;
    NpuGuarder guard;
};

/**
 * The request-granular engine written plainly: one timedAccess() per
 * 64-B packet, each adding to the stats as it goes (the engine
 * tallies them and adds them once per call). transfer() moves the
 * bytes once every packet issued; batch() moves each packet's bytes
 * as it issues. It counts the engine's packets and bytes itself.
 */
class PacketLoopDma
{
  public:
    PacketLoopDma(MemSystem &mem, ProtectionBackend &ctrl)
        : mem(mem), ctrl(ctrl)
    {
    }

    DmaResult
    transfer(Tick when, const DmaRequest &req,
             std::vector<std::uint8_t> *buffer)
    {
        if (req.bytes == 0)
            return DmaResult{when, true, false, 0};
        if (buffer && req.op == MemOp::read)
            buffer->assign(req.bytes, 0);
        const Translation xl =
            ctrl.translate(when, req.vaddr, req.bytes, req.op, req.world);
        if (!xl.ok)
            return DmaResult{when, false, false, 0};
        DmaResult result;
        Tick issue = xl.ready;
        for (std::uint32_t offset = 0; offset < req.bytes; offset += 64) {
            const std::uint32_t chunk =
                std::min<std::uint32_t>(64, req.bytes - offset);
            const MemResult mres = timedAccess(
                mem, issue,
                MemRequest{xl.paddr + offset, chunk, req.op, req.world});
            if (!mres.ok) {
                packets += result.packets;
                bytes += offset;
                result.ok = false;
                result.done = issue;
                return result;
            }
            ++result.packets;
            result.done = std::max(result.done, mres.done);
            issue += 1;
        }
        copy(buffer, req.op, xl.paddr, 0, req.bytes);
        packets += result.packets;
        bytes += req.bytes;
        result.done = std::max(result.done, issue);
        result.done +=
            ctrl.transferOverhead(result.done, xl.paddr, req.bytes, req.op);
        return result;
    }

    DmaResult
    batch(Tick when, const std::vector<DmaRequest> &reqs,
          const std::vector<std::vector<std::uint8_t> *> &buffers)
    {
        DmaResult result;
        result.done = when;
        struct Stream
        {
            std::size_t i;
            Translation xl;
            std::uint32_t offset;
        };
        std::vector<Stream> streams;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const DmaRequest &req = reqs[i];
            if (req.bytes == 0)
                continue;
            if (buffers[i] && req.op == MemOp::read)
                buffers[i]->assign(req.bytes, 0);
            const Translation xl = ctrl.translate(when, req.vaddr,
                                                  req.bytes, req.op,
                                                  req.world);
            if (!xl.ok) {
                result.ok = false;
                return result;
            }
            streams.push_back(Stream{i, xl, 0});
        }

        Tick issue = when;
        std::size_t live = streams.size();
        std::size_t rr = 0;
        while (live > 0) {
            Stream &s = streams[rr++ % streams.size()];
            const DmaRequest &req = reqs[s.i];
            if (s.offset >= req.bytes)
                continue;
            const std::uint32_t chunk =
                std::min<std::uint32_t>(64, req.bytes - s.offset);
            if (s.offset == 0)
                issue = std::max(issue, s.xl.ready);
            const Addr pa = s.xl.paddr + s.offset;
            const MemResult mres =
                timedAccess(mem, issue,
                            MemRequest{pa, chunk, req.op, req.world});
            if (!mres.ok) {
                result.ok = false;
                result.done = issue;
                return result;
            }
            copy(buffers[s.i], req.op, pa, s.offset, chunk);
            ++result.packets;
            ++packets;
            bytes += chunk;
            result.done = std::max(result.done, mres.done);
            issue += 1;
            s.offset += chunk;
            if (s.offset >= req.bytes)
                --live;
        }
        result.done = std::max(result.done, issue);
        Tick tail = 0;
        for (const Stream &s : streams) {
            const DmaRequest &req = reqs[s.i];
            tail = std::max(tail, ctrl.transferOverhead(
                                      result.done, s.xl.paddr, req.bytes,
                                      req.op));
        }
        result.done += tail;
        return result;
    }

    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;

  private:
    void
    copy(std::vector<std::uint8_t> *buffer, MemOp op, Addr pa,
         std::uint32_t offset, std::uint32_t n)
    {
        if (buffer && op == MemOp::read)
            mem.data().read(pa, buffer->data() + offset, n);
        else if (buffer)
            mem.data().write(pa, buffer->data() + offset, n);
    }

    MemSystem &mem;
    ProtectionBackend &ctrl;
};

/**
 * Random transfer() and transferBatch() traffic on a Guarder: 64-B
 * aligned and 16-B misaligned PAs, 16 B to 4 KiB per request, 1 to 16
 * streams, reads and writes from both worlds, some ranges straddling
 * into the secure partition and a few outside the translation map.
 * Each call must match the per-packet loop on a twin, field by field:
 * the result, the bytes, and every DMA, partition, L2 and DRAM stat.
 */
TEST(DmaGuarderExactness, TalliedLoopMatchesPacketLoop)
{
    GuardedSoc got;
    DmaEngine engine(got.stats, got.mem, got.guard);
    GuardedSoc want;
    PacketLoopDma ref(want.mem, want.guard);

    const AddrRange dram = got.mem.map().dram();
    const Addr secure = got.mem.map().secureRegion().base;
    Rng rng(42);
    // PAs cluster in 16 aliases of a 32 KiB window, 256 KiB (the L2's
    // set span) apart, so later requests hit what earlier ones cached,
    // read what they wrote, and evict dirty lines.
    const auto request = [&] {
        DmaRequest req;
        req.bytes = static_cast<std::uint32_t>(16 + rng.below(4096 - 15));
        Addr pa = dram.base + 0x10'0000 + rng.below(16) * 256 * 1024 +
                  rng.below(32 * 1024);
        if (rng.chance(0.15))
            pa = secure - rng.below(2 * req.bytes);
        pa = pa / 64 * 64 + (rng.chance(0.5) ? 16 * rng.below(4) : 0);
        req.vaddr = GuardedSoc::guarded_va + (pa - dram.base);
        if (rng.chance(0.03))
            req.vaddr = GuardedSoc::guarded_va - 0x10'0000;
        req.op = rng.chance(0.4) ? MemOp::write : MemOp::read;
        req.world = rng.chance(0.3) ? World::secure : World::normal;
        return req;
    };
    const auto filled = [&](const DmaRequest &req) {
        std::vector<std::uint8_t> buf(req.bytes);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        return buf;
    };

    Tick when = 0;
    std::size_t denied = 0;
    for (int round = 0; round < 400; ++round) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        const std::size_t n = rng.chance(0.3) ? 1 : 1 + rng.below(16);
        std::vector<DmaRequest> reqs;
        std::vector<std::vector<std::uint8_t>> got_data;
        for (std::size_t i = 0; i < n; ++i) {
            reqs.push_back(request());
            got_data.push_back(filled(reqs.back()));
        }
        std::vector<std::vector<std::uint8_t>> want_data = got_data;

        DmaResult g;
        DmaResult w;
        if (n == 1 && rng.chance(0.7)) {
            g = engine.transfer(when, reqs[0], &got_data[0]);
            w = ref.transfer(when, reqs[0], &want_data[0]);
        } else {
            std::vector<std::vector<std::uint8_t> *> got_bufs;
            std::vector<std::vector<std::uint8_t> *> want_bufs;
            for (std::size_t i = 0; i < n; ++i) {
                got_bufs.push_back(&got_data[i]);
                want_bufs.push_back(&want_data[i]);
            }
            g = engine.transferBatch(when, reqs, got_bufs);
            w = ref.batch(when, reqs, want_bufs);
        }
        denied += !w.ok;
        ASSERT_EQ(g.done, w.done);
        ASSERT_EQ(g.ok, w.ok);
        ASSERT_EQ(g.packets, w.packets);
        ASSERT_EQ(got_data, want_data);

        ASSERT_EQ(got.scalar("dma_packets"),
                  static_cast<double>(ref.packets));
        ASSERT_EQ(got.scalar("dma_bytes"), static_cast<double>(ref.bytes));
        for (const char *name :
             {"mem_accesses", "mem_violations", "l2_hits", "l2_misses",
              "l2_writebacks", "dram_reads", "dram_writes", "dram_bytes"})
            ASSERT_EQ(got.scalar(name), want.scalar(name)) << name;
        const auto *gq = dynamic_cast<const stats::Average *>(
            got.stats.find("dram_queue_delay"));
        const auto *wq = dynamic_cast<const stats::Average *>(
            want.stats.find("dram_queue_delay"));
        ASSERT_NE(gq, nullptr);
        ASSERT_NE(wq, nullptr);
        ASSERT_EQ(gq->count(), wq->count());
        ASSERT_EQ(gq->sum(), wq->sum());
        ASSERT_EQ(gq->min(), wq->min());
        ASSERT_EQ(gq->max(), wq->max());

        // Back to back, inside the DRAM backlog, or after a gap.
        const std::uint64_t gap = rng.below(3);
        when = gap == 0 ? w.done : gap == 1 ? when + (w.done - when) / 2
                                            : w.done + rng.below(500);
    }
    // The mix reached every path: hits, write-backs, queueing and
    // partition denials partway.
    EXPECT_GT(want.scalar("l2_hits"), 0);
    EXPECT_GT(want.scalar("l2_writebacks"), 0);
    EXPECT_GT(want.scalar("mem_violations"), 0);
    EXPECT_GT(denied, 0u);
}

} // namespace
} // namespace snpu
