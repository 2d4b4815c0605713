#include "dma/dma_engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snpu
{

DmaEngine::DmaEngine(stats::Group &stats, MemSystem &mem,
                     ProtectionBackend &ctrl, DmaParams params)
    : mem(mem), control(ctrl), params(params),
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
    if (params.packet_bytes == 0)
        fatal("DMA packet size must be positive");
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

    if (control.granularity() == CheckGranularity::request)
        return transferPerRequest(when, req, buffer);

    DmaResult result;
    Tick issue = when;
    Tick total_stall = 0;
    Addr first_pa = 0;
    std::uint32_t offset = 0;

    while (offset < req.bytes) {
        std::uint32_t chunk =
            std::min(params.packet_bytes, req.bytes - offset);
        // Per-packet translation: a packet must not straddle a
        // page, so clamp it at the page boundary (hardware DMA
        // engines split bursts the same way).
        const Addr va = req.vaddr + offset;
        const Addr to_page_end =
            page_bytes - (va & (page_bytes - 1));
        chunk = static_cast<std::uint32_t>(
            std::min<Addr>(chunk, to_page_end));

        // Packet-level translation (IOMMU): the packet cannot be
        // issued before its translation is available.
        Translation xl = control.translate(
            issue, va, chunk, req.op, req.world);
        if (xl.ready < issue) {
            panic("access control returned ready tick ", xl.ready,
                  " before the translate tick ", issue);
        }
        if (!xl.ok) {
            ++denied_requests;
            tracer.emit(issue, TraceCategory::dma, trace_name,
                        "packet denied by access control at va 0x",
                        std::hex, va);
            result.ok = false;
            result.done = issue;
            return result;
        }
        total_stall += xl.ready - issue;
        issue = xl.ready;
        const Addr packet_pa = xl.paddr;
        if (offset == 0)
            first_pa = packet_pa;

        Tick packet_done;
        if (!issuePacket(issue, MemRequest{packet_pa, chunk, req.op,
                                           req.world},
                         false, packet_done)) {
            ++denied_requests;
            result.ok = false;
            result.done = issue;
            return result;
        }

        // Functional data movement.
        if (buffer) {
            if (req.op == MemOp::read)
                mem.data().read(packet_pa, buffer->data() + offset, chunk);
            else
                mem.data().write(packet_pa, buffer->data() + offset, chunk);
        }

        ++packets_issued;
        ++result.packets;
        bytes_moved += chunk;
        result.done = std::max(result.done, packet_done);
        issue += params.issue_interval;
        offset += chunk;
    }

    stall_cycles.sample(static_cast<double>(total_stall));
    result.done = std::max(result.done, issue);
    // Per-transfer controller overhead (crypto pipelines, MAC): the
    // transfer does not complete until the controller releases it.
    result.done += control.transferOverhead(result.done, first_pa,
                                             req.bytes, req.op);
    tracer.emit(result.done, TraceCategory::dma, trace_name,
                req.op == MemOp::read ? "read" : "write", " of ",
                req.bytes, " B done: ", result.packets, " packets, ",
                total_stall, " stall cycles");
    return result;
}

DmaResult
DmaEngine::transferPerRequest(Tick when, const DmaRequest &req,
                              std::vector<std::uint8_t> *buffer)
{
    // Request-granular controller (Guarder / pass-through): exactly
    // one translation covers the whole request, so the packet loop
    // below provably performs no per-packet checks. The physical
    // range is contiguous by construction, so one partition check
    // covers it too, the packets take the check-free memory path,
    // and the functional bytes move in a single copy. Timing is
    // identical to the generic loop: same packet split, same issue
    // cadence, same completion max.
    Translation req_xl = control.translate(when, req.vaddr, req.bytes,
                                            req.op, req.world);
    if (req_xl.ready < when) {
        panic("access control returned ready tick ", req_xl.ready,
              " before the translate tick ", when);
    }
    if (!req_xl.ok) {
        ++denied_requests;
        tracer.emit(when, TraceCategory::dma, trace_name,
                    "request denied by access control at va 0x",
                    std::hex, req.vaddr);
        return DmaResult{when, false, false, 0};
    }

    const bool prechecked =
        mem.rangeAllowed(req.world, req_xl.paddr, req.bytes);
    DmaResult result;
    Tick issue = req_xl.ready;
    std::uint32_t offset = 0;

    while (offset < req.bytes) {
        const std::uint32_t chunk =
            std::min(params.packet_bytes, req.bytes - offset);
        Tick packet_done;
        if (!issuePacket(issue, MemRequest{req_xl.paddr + offset, chunk,
                                           req.op, req.world},
                         prechecked, packet_done)) {
            ++denied_requests;
            packets_issued += result.packets;
            bytes_moved += offset;
            result.ok = false;
            result.done = issue;
            return result;
        }
        ++result.packets;
        result.done = std::max(result.done, packet_done);
        issue += params.issue_interval;
        offset += chunk;
    }

    if (buffer) {
        if (req.op == MemOp::read)
            mem.data().read(req_xl.paddr, buffer->data(), req.bytes);
        else
            mem.data().write(req_xl.paddr, buffer->data(), req.bytes);
    }

    packets_issued += result.packets;
    bytes_moved += req.bytes;
    stall_cycles.sample(0.0);
    result.done = std::max(result.done, issue);
    result.done += control.transferOverhead(result.done, req_xl.paddr,
                                             req.bytes, req.op);
    tracer.emit(result.done, TraceCategory::dma, trace_name,
                req.op == MemOp::read ? "read" : "write", " of ",
                req.bytes, " B done: ", result.packets,
                " packets, one request-granular check");
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

    // Per-stream state.
    struct Stream
    {
        const DmaRequest *req;
        std::vector<std::uint8_t> *buffer;
        Translation req_xl;          // request-level translation
        Addr first_pa = 0;           // PA of the first packet
        std::uint32_t offset = 0;
        bool prechecked = false;     // whole PA range passed once
    };
    std::vector<Stream> streams;
    streams.reserve(reqs.size());

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
            s.req_xl = control.translate(when, req.vaddr, req.bytes,
                                          req.op, req.world);
            if (s.req_xl.ready < when) {
                panic("access control returned ready tick ",
                      s.req_xl.ready, " before the translate tick ",
                      when);
            }
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
            s.prechecked =
                mem.rangeAllowed(req.world, s.first_pa, req.bytes);
        }
        streams.push_back(s);
    }

    // Round-robin packet issue across the streams that still have
    // bytes to move, in stream order; a stream leaves the live list
    // when it drains. Translation requests enter the controller one
    // per cycle (t_req); packets issue to memory when their
    // translation is available and the issue pipeline has a slot.
    std::vector<Stream *> live;
    live.reserve(streams.size());
    for (Stream &s : streams)
        live.push_back(&s);
    Tick t_req = when;
    Tick issue = when;
    std::uint64_t bytes = 0;
    std::size_t next = 0;
    while (!live.empty()) {
        if (next == live.size())
            next = 0;
        Stream &s = *live[next];

        std::uint32_t chunk =
            std::min(params.packet_bytes, s.req->bytes - s.offset);
        Addr packet_pa;
        if (per_request) {
            packet_pa = s.req_xl.paddr + s.offset;
            if (s.offset == 0)
                issue = std::max(issue, s.req_xl.ready);
        } else {
            const Addr va = s.req->vaddr + s.offset;
            const Addr to_page_end =
                page_bytes - (va & (page_bytes - 1));
            chunk = static_cast<std::uint32_t>(
                std::min<Addr>(chunk, to_page_end));
            Translation xl = control.translate(
                t_req, va, chunk, s.req->op, s.req->world);
            if (xl.ready < t_req) {
                panic("access control returned ready tick ", xl.ready,
                      " before the translate tick ", t_req);
            }
            t_req += 1;
            if (!xl.ok) {
                ++denied_requests;
                packets_issued += result.packets;
                bytes_moved += static_cast<double>(bytes);
                result.ok = false;
                result.done = t_req;
                return result;
            }
            issue = std::max(issue, xl.ready);
            packet_pa = xl.paddr;
            if (s.offset == 0)
                s.first_pa = packet_pa;
        }

        Tick packet_done;
        if (!issuePacket(issue, MemRequest{packet_pa, chunk, s.req->op,
                                           s.req->world},
                         s.prechecked, packet_done)) {
            ++denied_requests;
            packets_issued += result.packets;
            bytes_moved += static_cast<double>(bytes);
            result.ok = false;
            result.done = issue;
            return result;
        }
        if (s.buffer) {
            if (s.req->op == MemOp::read) {
                mem.data().read(packet_pa,
                                s.buffer->data() + s.offset, chunk);
            } else {
                mem.data().write(packet_pa,
                                 s.buffer->data() + s.offset, chunk);
            }
        }
        ++result.packets;
        bytes += chunk;
        result.done = std::max(result.done, packet_done);
        issue += params.issue_interval;
        s.offset += chunk;
        if (s.offset >= s.req->bytes)
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(next));
        else
            ++next;
    }
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
