#include "dma/dma_engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snpu
{

namespace
{

/** Packet (beat) size in bytes. */
constexpr std::uint32_t packet_bytes = 64;

/**
 * The next packet of a stream at @p va with @p left bytes to go. A
 * per-packet translation must not straddle a page, so @p clamp stops
 * the packet at the page end (hardware DMA engines split bursts the
 * same way).
 */
std::uint32_t
packetBytes(Addr va, std::uint32_t left, bool clamp)
{
    const std::uint32_t chunk = std::min(packet_bytes, left);
    if (!clamp)
        return chunk;
    return static_cast<std::uint32_t>(
        std::min<Addr>(chunk, page_bytes - (va & (page_bytes - 1))));
}

} // namespace

DmaEngine::DmaEngine(stats::Group &stats, MemSystem &mem,
                     ProtectionBackend &ctrl)
    : mem(mem), control(ctrl),
      requests(stats, "dma_requests", "DMA requests issued"),
      packets_issued(stats, "dma_packets", "memory packets issued"),
      bytes_moved(stats, "dma_bytes", "bytes transferred by DMA"),
      denied_requests(stats, "dma_denied",
                      "DMA requests denied by access control"),
      faulted_requests(stats, "dma_faulted",
                       "DMA requests failed by injected faults"),
      stall_cycles(stats, "dma_stall",
                   "per-request translation stall cycles")
{
}

void
DmaEngine::attachTrace(TraceSink *sink, const std::string &who)
{
    if (sink) {
        trace_name = who;
        tracer.attach(sink);
    } else {
        tracer.detach();
    }
}

// Inlined into both loops: it runs once per IOMMU packet.
[[gnu::always_inline]] inline Translation
DmaEngine::translate(Tick at, const DmaRequest &req, Addr va,
                     std::uint32_t bytes)
{
    const Translation xl =
        control.translate(at, va, bytes, req.op, req.world);
    if (xl.ready < at) {
        panic("access control returned ready tick ", xl.ready,
              " before the translate tick ", at);
    }
    return xl;
}

void
DmaEngine::copyBytes(std::vector<std::uint8_t> *buffer, MemOp op,
                     Addr pa, std::uint32_t offset, std::uint32_t bytes)
{
    if (!buffer)
        return;
    if (op == MemOp::read)
        mem.data().read(pa, buffer->data() + offset, bytes);
    else
        mem.data().write(pa, buffer->data() + offset, bytes);
}

DmaResult
DmaEngine::transfer(Tick when, const DmaRequest &req,
                    std::vector<std::uint8_t> *buffer)
{
    ++requests;
    if (req.bytes == 0)
        return DmaResult{when, true, false, 0};

    if (faults &&
        faults->shouldInject(FaultSite::dma_transfer, when)) {
        ++faulted_requests;
        tracer.emit(when, TraceCategory::fault, trace_name,
                    "injected transfer fault: ", req.bytes,
                    " B request errored out");
        return DmaResult{when, false, true, 0};
    }

    if (buffer && req.op == MemOp::read)
        buffer->assign(req.bytes, 0);
    if (buffer && req.op == MemOp::write && buffer->size() < req.bytes)
        panic("DMA write buffer smaller than request");

    // A request-granular controller translates the whole request up
    // front; its physical range is contiguous by construction.
    const bool per_request =
        control.granularity() == CheckGranularity::request;
    Translation req_xl{true, 0, when};
    if (per_request) {
        req_xl = translate(when, req, req.vaddr, req.bytes);
        if (!req_xl.ok) {
            ++denied_requests;
            tracer.emit(when, TraceCategory::dma, trace_name,
                        "request denied by access control at va 0x",
                        std::hex, req.vaddr);
            return DmaResult{when, false, false, 0};
        }
    }

    DmaResult result;
    Tick issue = req_xl.ready;
    Tick total_stall = 0;
    Addr first_pa = req_xl.paddr;
    std::uint32_t offset = 0;
    MemTally tally;
    // Stops the transfer at the current packet, keeping the partial
    // packet and byte totals.
    const auto deny = [&] {
        mem.commit(tally);
        ++denied_requests;
        packets_issued += result.packets;
        bytes_moved += offset;
        result.ok = false;
        result.done = issue;
        return result;
    };

    while (offset < req.bytes) {
        const Addr va = req.vaddr + offset;
        const std::uint32_t chunk =
            packetBytes(va, req.bytes - offset, !per_request);
        Addr packet_pa = req_xl.paddr + offset;
        if (!per_request) {
            // The packet cannot issue before its translation is
            // available.
            const Translation xl = translate(issue, req, va, chunk);
            if (!xl.ok) {
                tracer.emit(issue, TraceCategory::dma, trace_name,
                            "packet denied by access control at va 0x",
                            std::hex, va);
                return deny();
            }
            total_stall += xl.ready - issue;
            issue = xl.ready;
            packet_pa = xl.paddr;
            if (offset == 0)
                first_pa = packet_pa;
        }

        const MemResult mres = mem.access(
            issue, MemRequest{packet_pa, chunk, req.op, req.world}, tally);
        if (!mres.ok)
            return deny();
        if (!per_request)
            copyBytes(buffer, req.op, packet_pa, offset, chunk);
        ++result.packets;
        result.done = std::max(result.done, mres.done);
        issue += packet_issue_interval;
        offset += chunk;
    }
    if (per_request)
        copyBytes(buffer, req.op, req_xl.paddr, 0, req.bytes);

    mem.commit(tally);
    packets_issued += result.packets;
    bytes_moved += req.bytes;
    stall_cycles.sample(static_cast<double>(total_stall));
    result.done = std::max(result.done, issue);
    // Per-transfer controller overhead (crypto pipelines, MAC): the
    // transfer does not complete until the controller releases it.
    result.done += control.transferOverhead(result.done, first_pa,
                                             req.bytes, req.op);
    if (per_request) {
        tracer.emit(result.done, TraceCategory::dma, trace_name,
                    req.op == MemOp::read ? "read" : "write", " of ",
                    req.bytes, " B done: ", result.packets,
                    " packets, one request-granular check");
    } else {
        tracer.emit(result.done, TraceCategory::dma, trace_name,
                    req.op == MemOp::read ? "read" : "write", " of ",
                    req.bytes, " B done: ", result.packets, " packets, ",
                    total_stall, " stall cycles");
    }
    return result;
}

DmaResult
DmaEngine::transferBatch(
    Tick when, const std::vector<DmaRequest> &reqs,
    const std::vector<std::vector<std::uint8_t> *> &buffers)
{
    if (reqs.size() != buffers.size())
        panic("transferBatch: request/buffer count mismatch");

    DmaResult result;
    result.done = when;

    if (faults &&
        faults->shouldInject(FaultSite::dma_transfer, when)) {
        ++faulted_requests;
        tracer.emit(when, TraceCategory::fault, trace_name,
                    "injected transfer fault: batch of ", reqs.size(),
                    " requests errored out");
        result.ok = false;
        result.fault = true;
        return result;
    }

    streams.clear();

    const bool per_request =
        control.granularity() == CheckGranularity::request;

    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const DmaRequest &req = reqs[i];
        ++requests;
        if (req.bytes == 0)
            continue;
        if (buffers[i] && req.op == MemOp::read)
            buffers[i]->assign(req.bytes, 0);
        if (buffers[i] && req.op == MemOp::write &&
            buffers[i]->size() < req.bytes) {
            panic("DMA write buffer smaller than request");
        }
        Stream s;
        s.req = &req;
        s.buffer = buffers[i];
        if (per_request) {
            s.req_xl = translate(when, req, req.vaddr, req.bytes);
            if (!s.req_xl.ok) {
                ++denied_requests;
                tracer.emit(when, TraceCategory::dma, trace_name,
                            "batched request denied by access "
                            "control at va 0x",
                            std::hex, req.vaddr);
                result.ok = false;
                return result;
            }
            s.first_pa = s.req_xl.paddr;
        }
        streams.push_back(s);
    }

    // Round-robin packet issue across the streams that still have
    // bytes to move, in stream order; a stream leaves the live list
    // when it drains. Translation requests enter the controller one
    // per cycle (t_req); packets issue to memory when their
    // translation is available and the issue pipeline has a slot.
    live.clear();
    for (Stream &s : streams)
        live.push_back(&s);
    Tick t_req = when;
    Tick issue = when;
    std::uint64_t bytes = 0;
    std::size_t next = 0;
    MemTally tally;
    // Stops the batch at the current packet (done at @p at), keeping
    // the partial packet and byte totals.
    const auto deny = [&](Tick at) {
        mem.commit(tally);
        ++denied_requests;
        packets_issued += result.packets;
        bytes_moved += static_cast<double>(bytes);
        result.ok = false;
        result.done = at;
        return result;
    };
    while (!live.empty()) {
        if (next == live.size())
            next = 0;
        Stream &s = *live[next];

        const Addr va = s.req->vaddr + s.offset;
        const std::uint32_t chunk =
            packetBytes(va, s.req->bytes - s.offset, !per_request);
        Addr packet_pa;
        if (per_request) {
            packet_pa = s.req_xl.paddr + s.offset;
            if (s.offset == 0)
                issue = std::max(issue, s.req_xl.ready);
        } else {
            const Translation xl = translate(t_req, *s.req, va, chunk);
            t_req += 1;
            if (!xl.ok)
                return deny(t_req);
            issue = std::max(issue, xl.ready);
            packet_pa = xl.paddr;
            if (s.offset == 0)
                s.first_pa = packet_pa;
        }

        const MemResult mres = mem.access(
            issue, MemRequest{packet_pa, chunk, s.req->op, s.req->world},
            tally);
        if (!mres.ok)
            return deny(issue);
        copyBytes(s.buffer, s.req->op, packet_pa, s.offset, chunk);
        ++result.packets;
        bytes += chunk;
        result.done = std::max(result.done, mres.done);
        issue += packet_issue_interval;
        s.offset += chunk;
        if (s.offset >= s.req->bytes)
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(next));
        else
            ++next;
    }
    mem.commit(tally);
    packets_issued += result.packets;
    bytes_moved += static_cast<double>(bytes);

    result.done = std::max(result.done, issue);
    // Per-transfer controller overhead: the streams share one
    // pipelined engine, so their tails overlap — the batch completes
    // when the slowest stream's overhead drains.
    Tick tail = 0;
    for (const Stream &s : streams) {
        tail = std::max(tail, control.transferOverhead(
                                  result.done, s.first_pa,
                                  s.req->bytes, s.req->op));
    }
    result.done += tail;
    tracer.emit(result.done, TraceCategory::dma, trace_name,
                "batch of ", streams.size(), " streams done: ",
                result.packets, " packets");
    return result;
}

} // namespace snpu
