#include "core/timing_cache.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/hashing.hh"
#include "workload/layer_timing.hh"

namespace snpu
{

TimingCache &
TimingCache::global()
{
    static TimingCache cache;
    return cache;
}

bool
TimingCache::enabled()
{
    static const bool on = [] {
        const char *v = std::getenv("SNPU_TIMING_CACHE");
        return !(v && v[0] == '0' && v[1] == '\0');
    }();
    return on;
}

std::shared_ptr<const TimingEntry>
TimingCache::find(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(key);
    return it == entries.end() ? nullptr : it->second;
}

void
TimingCache::insert(std::uint64_t key,
                    std::shared_ptr<const TimingEntry> entry)
{
    std::lock_guard<std::mutex> lock(mu);
    // First insertion wins: concurrent sweep jobs racing the same
    // key recorded the same op from the same canonical state.
    entries.emplace(key, std::move(entry));
}

void
TimingCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    entries.clear();
}

std::uint64_t
socConfigFingerprint(const SocParams &p)
{
    std::uint64_t h = fnv_offset;
    h = hashMix(h, std::uint64_t(p.system));
    h = hashMix(h, std::uint64_t(p.tiles));
    h = hashMix(h, std::uint64_t(p.systolic_dim));
    h = hashMix(h, std::uint64_t(p.spad_kib_per_tile));
    h = hashMix(h, std::uint64_t(p.l2_mib));
    h = hashMix(h, std::uint64_t(p.l2_banks));
    h = hashMix(h, p.dram_gbps);
    h = hashMix(h, p.freq_ghz);
    h = hashMix(h, p.protection);
    h = hashMix(h, std::uint64_t(p.iotlb_entries));
    h = hashMix(h, std::uint64_t(p.iommu_walk_cache));
    h = hashMix(h, std::uint64_t(p.crypto_counter_entries));
    h = hashMix(h, p.crypto_mac_bytes_per_cycle);
    h = hashMix(h, std::uint64_t(p.dma_channels));
    h = hashMix(h, std::uint64_t(p.spad_isolation));
    h = hashMix(h, p.partition_secure_frac);
    h = hashMix(h, std::uint64_t(p.noc_mode));
    h = hashMix(h, std::uint64_t(p.memory_encryption));
    h = hashMix(h, std::uint64_t(p.timing_only));
    return h;
}

namespace
{

void
replayIds(Scratchpad &spad, const std::vector<Scratchpad::WrittenRange> &ranges)
{
    for (const Scratchpad::WrittenRange &r : ranges)
        spad.setIdRange(r.first, r.count, r.world);
}

} // namespace

MemoizedExec::MemoizedExec(Soc &soc)
    : soc(soc), capture(soc.stats()),
      soc_fp(socConfigFingerprint(soc.params()))
{
}

bool
MemoizedExec::mustBypass() const
{
    return !TimingCache::enabled() || soc.armedFaults() != nullptr ||
           soc.traceSink() != nullptr || !soc.params().timing_only;
}

void
MemoizedExec::canonicalize(std::uint32_t core)
{
    // Stat-neutral by construction: a bracket that counted anything
    // would break replay parity (hits apply one bracket, live ops
    // two).
    soc.mem().canonicalizeTiming();
    soc.protection(core).canonicalizeTiming();
}

MemoizedExec::Outcome
MemoizedExec::run(std::uint32_t core, Tick start,
                  const NpuProgram &prog, const ExecOptions &eo,
                  Addr va_base, Addr va_bytes)
{
    NpuCore &tile = soc.npu().core(core);
    ProtectionBackend &backend = soc.protection(core);
    TimingCache &cache = TimingCache::global();
    DramModel &dram = soc.mem().dram();

    // Closed-form cross-tile contention: the op queues behind the
    // channel backlog other tiles left, and charges its own channel
    // occupancy back afterwards. Both legs are identical for hits,
    // misses, and bypasses — the knee mechanism survives memoization.
    const Tick backlog =
        dram.nextFree() > start ? dram.nextFree() - start : 0;

    canonicalize(core);

    Outcome out;
    LayerTimingKey key;
    const bool bypass = mustBypass();
    if (!bypass) {
        key = makeExecKey(core, tile, backend, prog, eo, va_base,
                          va_bytes, soc_fp);
    }

    if (bypass || !key.cacheable) {
        cache.countBypass();
        const std::uint64_t checks0 = backend.checkCount();
        const std::uint64_t bytes0 = tile.dma().totalBytes();
        const Tick busy0 = dram.busyCycles();
        out.exec = tile.run(start, prog, eo);
        out.check_requests = backend.checkCount() - checks0;
        out.dma_bytes = tile.dma().totalBytes() - bytes0;
        const Tick busy = dram.busyCycles() - busy0;
        canonicalize(core);
        dram.rebase(start + backlog + busy);
        out.exec.end += backlog;
        return out;
    }

    if (auto entry = cache.find(key.hash)) {
        cache.countHit();
        out.hit = true;
        out.exec.start = start;
        out.exec.end = start + backlog + entry->rel_end;
        out.exec.mac_busy = entry->mac_busy;
        out.exec.macs = entry->macs;
        out.exec.violations = entry->violations;
        out.exec.flush_cycles = entry->flush_cycles;
        out.check_requests = entry->check_requests;
        out.dma_bytes = entry->dma_bytes;
        capture.apply(entry->deltas);
        replayIds(tile.scratchpad(), entry->spad_ids);
        replayIds(tile.accumulator(), entry->acc_ids);
        dram.rebase(start + backlog + entry->dram_busy);
        return out;
    }

    cache.countMiss();
    auto entry = std::make_shared<TimingEntry>();
    const std::uint64_t checks0 = backend.checkCount();
    const std::uint64_t bytes0 = tile.dma().totalBytes();
    const Tick busy0 = dram.busyCycles();
    capture.begin();
    tile.scratchpad().beginWriteRecord();
    tile.accumulator().beginWriteRecord();
    out.exec = tile.run(start, prog, eo);
    tile.scratchpad().endWriteRecord(entry->spad_ids);
    tile.accumulator().endWriteRecord(entry->acc_ids);
    capture.collect(entry->deltas);
    out.check_requests = backend.checkCount() - checks0;
    out.dma_bytes = tile.dma().totalBytes() - bytes0;
    const Tick busy = dram.busyCycles() - busy0;
    canonicalize(core);
    dram.rebase(start + backlog + busy);

    if (out.exec.ok()) {
        entry->rel_end = out.exec.end - out.exec.start;
        entry->mac_busy = out.exec.mac_busy;
        entry->macs = out.exec.macs;
        entry->violations = out.exec.violations;
        entry->flush_cycles = out.exec.flush_cycles;
        entry->check_requests = out.check_requests;
        entry->dma_bytes = out.dma_bytes;
        entry->dram_busy = busy;
        cache.insert(key.hash, std::move(entry));
    }
    out.exec.end += backlog;
    return out;
}

Tick
MemoizedExec::contextFlush(std::uint32_t core, Tick start,
                           std::uint32_t live_rows, Addr save_area)
{
    NpuCore &tile = soc.npu().core(core);
    TimingCache &cache = TimingCache::global();
    DramModel &dram = soc.mem().dram();

    const Tick backlog =
        dram.nextFree() > start ? dram.nextFree() - start : 0;

    canonicalize(core);

    if (mustBypass()) {
        cache.countBypass();
        const Tick busy0 = dram.busyCycles();
        Tick t = tile.flusher().flush(start, live_rows, save_area,
                                      World::normal);
        t = tile.flusher().restore(t, live_rows, save_area,
                                   World::normal);
        const Tick busy = dram.busyCycles() - busy0;
        canonicalize(core);
        dram.rebase(start + backlog + busy);
        return t + backlog;
    }

    const LayerTimingKey key =
        makeFlushKey(core, tile, live_rows, save_area, soc_fp);

    if (auto entry = cache.find(key.hash)) {
        cache.countHit();
        // Functional replay in closed form: the save streams the
        // current scratchpad bytes to the save area, the scrub sets
        // the saved rows' IDs to normal, and the restore brings the
        // same bytes straight back — so the scratchpad data is net
        // unchanged.
        Scratchpad &spad = tile.scratchpad();
        const std::uint32_t rows = entry->flush_live_rows;
        if (rows > 0) {
            soc.mem().data().write(
                entry->flush_save_area, spad.rawRow(0),
                static_cast<std::size_t>(rows) * spad.rowBytes());
        }
        spad.setIdRange(0, rows, World::normal);
        capture.apply(entry->deltas);
        dram.rebase(start + backlog + entry->dram_busy);
        return start + backlog + entry->rel_end;
    }

    cache.countMiss();
    auto entry = std::make_shared<TimingEntry>();
    const Tick busy0 = dram.busyCycles();
    capture.begin();
    Tick t = tile.flusher().flush(start, live_rows, save_area,
                                  World::normal);
    t = tile.flusher().restore(t, live_rows, save_area,
                               World::normal);
    capture.collect(entry->deltas);
    const Tick busy = dram.busyCycles() - busy0;
    canonicalize(core);
    dram.rebase(start + backlog + busy);

    entry->is_flush_op = true;
    entry->rel_end = t - start;
    entry->flush_live_rows =
        std::min(live_rows, tile.scratchpad().rows());
    entry->flush_save_area = save_area;
    entry->dram_busy = busy;
    cache.insert(key.hash, std::move(entry));
    return t + backlog;
}

} // namespace snpu
