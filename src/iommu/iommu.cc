#include "iommu/iommu.hh"

#include "sim/logging.hh"

namespace snpu
{

Iommu::Iommu(stats::Group &stats, PageTable &table, IommuParams params)
    : ProtectionBackend("iommu", &stats), table(table), params(params),
      iotlb(params.iotlb_entries),
      walk_count(stats, "iommu_walks", "page-table walks"),
      walk_latency(stats, "iommu_walk_latency", "cycles per page walk")
{
    mixTimingFingerprint(std::uint64_t(params.iotlb_entries));
    mixTimingFingerprint(std::uint64_t(params.walk_cache));
}

Translation
Iommu::translate(Tick when, Addr vaddr, std::uint32_t bytes, MemOp op,
                 World world)
{
    recordCheck(bytes);
    const Addr vpn = vaddr / page_bytes;
    const Addr offset = vaddr % page_bytes;

    if (offset + bytes > page_bytes) {
        // The DMA engine splits requests into 64-byte packets that
        // never straddle a page in our layouts; treat it as a bug.
        panic("IOMMU packet crosses a page boundary");
    }

    if (injectedDenial(when)) {
        recordDeny(bytes);
        tracer.emit(when, TraceCategory::fault, trace_name,
                    "injected check fault: packet at va 0x", std::hex,
                    vaddr, std::dec, " denied");
        return Translation{false, 0, when + hit_latency};
    }

    bool writable;
    bool secure;
    Addr ppn;
    Tick ready;

    if (const IotlbEntry *e = iotlb.lookup(vpn)) {
        writable = e->writable;
        secure = e->secure;
        ppn = e->ppn;
        ready = when + hit_latency;
    } else {
        Pte pte;
        ++walk_count;
        // The walker is pipelined but can only accept a new walk
        // every walker_occupancy cycles; a stream of misses is
        // throughput-limited here (the IOTLB "ping-pong" cost).
        const Tick walk_start = std::max(when, walker_free);
        walker_free = walk_start + walker_occupancy;
        const Tick walk_done = table.walk(walk_start, vpn * page_bytes,
                                          params.walk_cache, pte);
        walk_latency.sample(static_cast<double>(walk_done - when));
        if (!pte.valid) {
            recordDeny(bytes);
            return Translation{false, 0, walk_done};
        }
        writable = pte.writable;
        secure = pte.secure;
        ppn = pte.paddr / page_bytes;
        iotlb.insert(vpn, ppn, writable, secure);
        ready = walk_done + fill_latency;
    }

    // Permission and TrustZone S/NS checks.
    if (op == MemOp::write && !writable) {
        recordDeny(bytes);
        return Translation{false, 0, ready};
    }
    if (secure && world != World::secure) {
        recordDeny(bytes);
        return Translation{false, 0, ready};
    }

    return Translation{true, ppn * page_bytes + offset, ready};
}

Status
Iommu::beginContext(const ProtectionContext &ctx, bool from_secure)
{
    (void)from_secure; // the driver (normal world) maps NPU pages
    if (ctx.bytes == 0)
        return Status::invalidArgument("IOMMU context must be non-empty");

    const Addr aligned =
        (ctx.bytes + page_bytes - 1) & ~Addr(page_bytes - 1);
    // Pages may already be mapped by a previous or overlapping
    // window onto the same frames; those entries are kept. A page
    // mapped to another frame fails the context.
    if (!table.mapRange(ctx.va_base, ctx.pa_base, aligned, true,
                        ctx.world == World::secure)) {
        return Status::provisionFailed(logging::format(
            "IOMMU context va 0x", std::hex, ctx.va_base, " +0x",
            aligned, " overlaps a mapping to another physical page"));
    }
    flushTlb();
    recordContext();
    tracer.emit(0, TraceCategory::security, trace_name,
                "mapped context va 0x", std::hex, ctx.va_base,
                " -> pa 0x", ctx.pa_base, std::dec, " +", aligned,
                " B, IOTLB flushed");
    return Status::ok();
}

Status
Iommu::endContext(bool from_secure)
{
    (void)from_secure;
    flushTlb();
    return Status::ok();
}

void
Iommu::flushTlb()
{
    iotlb.flushAll();
}

} // namespace snpu
