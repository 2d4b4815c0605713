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
    // The L2 geometry (MiB, banks) is fixed but still hashed: the
    // fingerprint seeds the boot images (makeBootChain).
    h = hashMix(h, std::uint64_t(L2Params{}.size_bytes >> 20));
    h = hashMix(h, std::uint64_t(L2Params{}.banks));
    h = hashMix(h, p.dram_gbps);
    h = hashMix(h, p.freq_ghz);
    h = hashMix(h, p.protection);
    h = hashMix(h, std::uint64_t(p.iotlb_entries));
    h = hashMix(h, std::uint64_t(p.iommu_walk_cache));
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
        spad.setIdRange(r.first, r.count, r.tag);
}

/** A miss: remember the tile's post-op ID fingerprints. */
void
recordIdFingerprints(TimingEntry &entry, NpuCore &tile)
{
    entry.spad_id_fp = tile.scratchpad().idFingerprint();
    entry.acc_id_fp = tile.accumulator().idFingerprint();
}

/** A hit, after its ID replay: install them without hashing. Equal
 *  keys cover equal pre-op images, so the post-op images are equal. */
void
installIdFingerprints(const TimingEntry &entry, NpuCore &tile)
{
    tile.scratchpad().installIdFingerprint(entry.spad_id_fp);
    tile.accumulator().installIdFingerprint(entry.acc_id_fp);
}

} // namespace

MemoizedExec::MemoizedExec(Soc &soc)
    : soc(soc), capture(soc.stats()),
      soc_fp(hashMix(socConfigFingerprint(soc.params()),
                     capture.layoutFingerprint()))
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

ExecResult
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

    LayerTimingKey key;
    const bool bypass = mustBypass();
    if (!bypass) {
        key = makeExecKey(core, tile, backend, prog, eo, va_base,
                          va_bytes, soc_fp);
    }

    if (bypass || !key.cacheable) {
        cache.countBypass();
        const Tick busy0 = dram.busyCycles();
        ExecResult out = tile.run(start, prog, eo);
        const Tick busy = dram.busyCycles() - busy0;
        canonicalize(core);
        dram.rebase(start + backlog + busy);
        out.end += backlog;
        return out;
    }

    if (auto entry = cache.find(key.hash)) {
        cache.countHit();
        ExecResult out;
        out.start = start;
        out.end = start + backlog + entry->rel_end;
        out.mac_busy = entry->mac_busy;
        out.macs = entry->macs;
        out.violations = entry->violations;
        out.flush_cycles = entry->flush_cycles;
        capture.apply(entry->deltas);
        replayIds(tile.scratchpad(), entry->spad_ids);
        replayIds(tile.accumulator(), entry->acc_ids);
        installIdFingerprints(*entry, tile);
        dram.rebase(start + backlog + entry->dram_busy);
        return out;
    }

    cache.countMiss();
    auto entry = std::make_shared<TimingEntry>();
    const Tick busy0 = dram.busyCycles();
    capture.begin();
    tile.scratchpad().beginWriteRecord();
    tile.accumulator().beginWriteRecord();
    ExecResult out = tile.run(start, prog, eo);
    tile.scratchpad().endWriteRecord(entry->spad_ids);
    tile.accumulator().endWriteRecord(entry->acc_ids);
    capture.collect(entry->deltas);
    const Tick busy = dram.busyCycles() - busy0;
    canonicalize(core);
    dram.rebase(start + backlog + busy);

    if (out.ok()) {
        entry->rel_end = out.end - out.start;
        entry->mac_busy = out.mac_busy;
        entry->macs = out.macs;
        entry->violations = out.violations;
        entry->flush_cycles = out.flush_cycles;
        entry->dram_busy = busy;
        recordIdFingerprints(*entry, tile);
        cache.insert(key.hash, std::move(entry));
    }
    out.end += backlog;
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
        // unchanged. A pad that never allocated its data array reads
        // all zeros, so its save only has to clear the save area.
        Scratchpad &spad = tile.scratchpad();
        const std::uint32_t rows = std::min(live_rows, spad.rows());
        const std::size_t bytes =
            static_cast<std::size_t>(rows) * spad.rowBytes();
        if (spad.holdsData())
            soc.mem().data().write(save_area, spad.rawRow(0), bytes);
        else
            soc.mem().data().fill(save_area, bytes, 0);
        spad.setIdRange(0, rows, World::normal);
        installIdFingerprints(*entry, tile);
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

    entry->rel_end = t - start;
    entry->dram_busy = busy;
    recordIdFingerprints(*entry, tile);
    cache.insert(key.hash, std::move(entry));
    return t + backlog;
}

} // namespace snpu
