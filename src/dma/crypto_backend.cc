#include "dma/crypto_backend.hh"

#include <algorithm>
#include <cmath>

#include "sim/hashing.hh"
#include "sim/logging.hh"
#include "tee/hmac.hh"

namespace snpu
{

struct CryptoBackend::CryptoStats
{
    explicit CryptoStats(stats::Group &g)
        : mac_cycles(g, "crypto_mac_cycles",
                     "cycles charged to the HMAC unit"),
          version_bumps(g, "crypto_version_bumps",
                        "region version increments (write transfers)")
    {
    }

    stats::Scalar mac_cycles;
    stats::Scalar version_bumps;
};

CryptoBackend::CryptoBackend(stats::Group *stats,
                             CryptoBackendParams params)
    : ProtectionBackend("crypto", stats), params(params),
      regions(params.regions),
      timing(params, stats,
             {"crypto_counter_hits", "crypto_counter_misses",
              "counter cache misses (extra DRAM fetch)",
              "crypto_aes_blocks",
              "64-byte lines through the AES pipeline"})
{
    if (params.regions == 0)
        fatal("crypto backend needs at least one keyed region");
    if (params.mac_bytes_per_cycle <= 0 ||
        params.dma_bytes_per_cycle <= 0) {
        fatal("crypto backend throughputs must be positive");
    }
    if (stats)
        cstats = std::make_unique<CryptoStats>(*stats);
    mixTimingFingerprint(std::uint64_t(params.engine_latency));
    mixTimingFingerprint(std::uint64_t(params.counter_cache_entries));
    mixTimingFingerprint(std::uint64_t(params.counter_miss_penalty));
    mixTimingFingerprint(std::uint64_t(params.mac_latency));
    mixTimingFingerprint(params.mac_bytes_per_cycle);
    mixTimingFingerprint(params.dma_bytes_per_cycle);
    mixTimingFingerprint(std::uint64_t(params.check_latency));
    mixTimingFingerprint(std::uint64_t(params.regions));
}

CryptoBackend::~CryptoBackend() = default;

CryptoBackend::KeyedRegion *
CryptoBackend::findRegion(Addr addr, std::uint32_t bytes)
{
    for (auto &r : regions) {
        if (r.valid && addr >= r.base &&
            addr - r.base + bytes <= r.size) {
            return &r;
        }
    }
    return nullptr;
}

Translation
CryptoBackend::translate(Tick when, Addr vaddr, std::uint32_t bytes,
                         MemOp op, World world)
{
    recordCheck(bytes);
    const Tick ready = when + params.check_latency;

    if (injectedDenial(when)) {
        recordDeny(bytes);
        tracer.emit(when, TraceCategory::fault, trace_name,
                    "injected integrity fault: ",
                    op == MemOp::read ? "read" : "write", " of ",
                    bytes, " B fails authentication");
        return Translation{false, 0, ready};
    }

    const KeyedRegion *region = findRegion(vaddr, bytes);
    if (!region) {
        // Data outside every keyed region cannot authenticate; the
        // engine refuses to stream it rather than returning garbage.
        recordDeny(bytes);
        tracer.emit(when, TraceCategory::security, trace_name,
                    "denied: no keyed region covers pa 0x", std::hex,
                    vaddr, std::dec, " +", bytes, " B");
        return Translation{false, 0, ready};
    }
    // A secure region's key is bound to the secure context; a
    // normal-world transfer against it would MAC-fail.
    if (region->world == World::secure && world != World::secure) {
        recordDeny(bytes);
        tracer.emit(when, TraceCategory::security, trace_name,
                    "denied: normal-world transfer against a "
                    "secure-keyed region");
        return Translation{false, 0, ready};
    }
    // Counter-mode addressing is identity: ciphertext sits at the
    // plaintext address.
    return Translation{true, vaddr, ready};
}

Tick
CryptoBackend::transferOverhead(Tick when, Addr paddr,
                                std::uint32_t bytes, MemOp op)
{
    (void)when;
    if (bytes == 0)
        return 0;

    // Pipelined AES fill plus the counter-line fetches; throughput
    // matches the DMA stream, so no per-block cost beyond the fill.
    Tick stall = timing.charge(paddr, bytes);

    // MAC: the SHA unit absorbs the stream in parallel with the
    // packet issue. Its lower throughput surfaces as the difference,
    // plus a fixed finalize latency for tag generation/check.
    const double sha_cycles =
        std::ceil(static_cast<double>(bytes) /
                  params.mac_bytes_per_cycle);
    const double stream_cycles =
        std::ceil(static_cast<double>(bytes) /
                  params.dma_bytes_per_cycle);
    const Tick mac =
        params.mac_latency +
        static_cast<Tick>(std::max(0.0, sha_cycles - stream_cycles));
    stall += mac;
    if (cstats)
        cstats->mac_cycles += static_cast<double>(mac);

    // Per-region versioning: a write re-keys the data it covers.
    if (op == MemOp::write) {
        if (KeyedRegion *region = findRegion(paddr, bytes)) {
            ++region->version;
            ++n_version_bumps;
            if (cstats)
                ++cstats->version_bumps;
        }
    }
    return stall;
}

Status
CryptoBackend::beginContext(const ProtectionContext &ctx,
                            bool from_secure)
{
    if (!from_secure) {
        tracer.emit(0, TraceCategory::security, trace_name,
                    "region keying from non-secure caller rejected");
        return Status::privilegeDenied(
            "crypto region keying requires secure privilege");
    }
    if (ctx.bytes == 0) {
        return Status::invalidArgument(
            "crypto region must be non-empty");
    }

    // One region per context: re-provisioning replaces slot 0, like
    // the guarder's context-setter path reprograms window 0. The
    // remaining slots serve multi-window monitor setups.
    KeyedRegion &r = regions[0];
    const std::uint64_t version = r.valid ? r.version + 1 : 1;
    r.valid = true;
    r.base = ctx.pa_base;
    r.size = ctx.bytes;
    r.world = ctx.world;
    r.version = version;
    r.keyed_version = version;
    context_fp_valid = false;

    recordContext();
    tracer.emit(0, TraceCategory::security, trace_name,
                "keyed region [0x", std::hex, r.base, ", 0x",
                r.base + r.size, std::dec, ") v", r.version,
                r.world == World::secure ? " secure" : " normal");
    return Status::ok();
}

Status
CryptoBackend::endContext(bool from_secure)
{
    if (!from_secure) {
        return Status::privilegeDenied(
            "crypto region retirement requires secure privilege");
    }
    for (auto &r : regions)
        r.valid = false;
    context_fp_valid = false;
    tracer.emit(0, TraceCategory::security, trace_name,
                "all keyed regions retired (context teardown)");
    return Status::ok();
}

Digest
CryptoBackend::regionTag(std::uint32_t slot) const
{
    if (slot >= regions.size() || !regions[slot].valid)
        return Digest{};
    const KeyedRegion &r = regions[slot];
    // HMAC-SHA256 over the region descriptor under the engine key,
    // binding (base, size, world, version at keying). This is what a
    // read transfer's MAC would verify against.
    std::vector<std::uint8_t> key(16, 0x5A);
    std::vector<std::uint8_t> desc;
    for (int i = 0; i < 8; ++i)
        desc.push_back(static_cast<std::uint8_t>(r.base >> (8 * i)));
    for (int i = 0; i < 8; ++i)
        desc.push_back(static_cast<std::uint8_t>(r.size >> (8 * i)));
    desc.push_back(r.world == World::secure ? 1 : 0);
    for (int i = 0; i < 8; ++i) {
        desc.push_back(
            static_cast<std::uint8_t>(r.keyed_version >> (8 * i)));
    }
    return hmacSha256(key, desc);
}

std::uint64_t
CryptoBackend::contextFingerprint(Addr va_base, Addr bytes)
{
    (void)va_base;
    (void)bytes;
    if (context_fp_valid)
        return context_fp;
    std::uint64_t h = fnv_offset;
    for (const KeyedRegion &r : regions) {
        h = hashMix(h, std::uint64_t(r.valid));
        if (!r.valid)
            continue;
        h = hashMix(h, r.base);
        h = hashMix(h, r.size);
        h = hashMix(h, std::uint64_t(r.world));
    }
    context_fp = h;
    context_fp_valid = true;
    return h;
}

} // namespace snpu
