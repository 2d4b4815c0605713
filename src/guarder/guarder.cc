#include "guarder/guarder.hh"

#include "sim/hashing.hh"

namespace snpu
{

NpuGuarder::NpuGuarder(stats::Group &stats)
    : ProtectionBackend("guarder", &stats),
      config_violations(stats, "guarder_config_violations",
                        "register writes rejected (non-secure caller)")
{
}

const TranslationRegister *
NpuGuarder::findTranslation(Addr vaddr, std::uint32_t bytes) const
{
    for (const auto &tr : translation) {
        if (!tr.valid)
            continue;
        if (vaddr >= tr.va_base && vaddr - tr.va_base + bytes <= tr.size)
            return &tr;
    }
    return nullptr;
}

const CheckingRegister *
NpuGuarder::findWindow(Addr paddr, std::uint32_t bytes, MemOp op,
                       World world) const
{
    for (const auto &cr : checking) {
        if (!cr.valid || !cr.range.contains(paddr, bytes))
            continue;
        if (op == MemOp::read && !cr.perm.read)
            continue;
        if (op == MemOp::write && !cr.perm.write)
            continue;
        // A secure window is usable only by the secure context.
        if (cr.world == World::secure && world != World::secure)
            continue;
        return &cr;
    }
    return nullptr;
}

Translation
NpuGuarder::translate(Tick when, Addr vaddr, std::uint32_t bytes,
                      MemOp op, World world)
{
    recordCheck(bytes);

    if (faults &&
        faults->shouldInject(FaultSite::guarder_check, when)) {
        recordDeny(bytes);
        tracer.emit(when, TraceCategory::fault, trace_name,
                    "injected check fault: request at va 0x",
                    std::hex, vaddr, std::dec, " denied");
        return Translation{false, 0, when};
    }

    const TranslationRegister *tr = findTranslation(vaddr, bytes);
    if (!tr) {
        recordDeny(bytes);
        tracer.emit(when, TraceCategory::guarder, trace_name,
                    "denied: no translation register covers va 0x",
                    std::hex, vaddr, std::dec, " +", bytes, " B");
        return Translation{false, 0, when};
    }
    const Addr paddr = tr->pa_base + (vaddr - tr->va_base);

    if (!findWindow(paddr, bytes, op, world)) {
        recordDeny(bytes);
        tracer.emit(when, TraceCategory::guarder, trace_name,
                    "denied: no checking window grants ",
                    op == MemOp::read ? "read" : "write", " of pa 0x",
                    std::hex, paddr, std::dec, " +", bytes, " B");
        return Translation{false, 0, when};
    }
    return Translation{true, paddr, when};
}

Status
NpuGuarder::beginContext(const ProtectionContext &ctx, bool from_secure)
{
    if (ctx.bytes == 0) {
        return Status::invalidArgument(
            "guarder context must be non-empty");
    }
    if (!clearAll(from_secure)) {
        return Status::privilegeDenied(
            "guarder context setup requires secure privilege");
    }
    if (!setCheckingRegister(0, AddrRange{ctx.pa_base, ctx.bytes},
                             GuardPerm::rw(), ctx.world, from_secure)) {
        return Status::provisionFailed(
            "guarder checking register rejected");
    }
    if (!setTranslationRegister(0, ctx.va_base, ctx.pa_base, ctx.bytes,
                                from_secure)) {
        return Status::provisionFailed(
            "guarder translation register rejected");
    }
    recordContext();
    return Status::ok();
}

Status
NpuGuarder::endContext(bool from_secure)
{
    if (!clearAll(from_secure)) {
        return Status::privilegeDenied(
            "guarder context teardown requires secure privilege");
    }
    return Status::ok();
}

bool
NpuGuarder::setCheckingRegister(std::uint32_t slot, AddrRange range,
                                GuardPerm perm, World world,
                                bool from_secure)
{
    if (!from_secure) {
        ++config_violations;
        tracer.emit(0, TraceCategory::guarder, trace_name,
                    "checking-register write from non-secure caller "
                    "rejected");
        return false;
    }
    if (slot >= checking.size())
        return false;
    checking[slot] = CheckingRegister{true, range, perm, world};
    context_fp_valid = false;
    tracer.emit(0, TraceCategory::guarder, trace_name,
                "checking register ", slot, " = [0x", std::hex,
                range.base, ", 0x", range.base + range.size, std::dec,
                ") ", perm.read ? "r" : "-", perm.write ? "w" : "-",
                world == World::secure ? " secure" : " normal");
    return true;
}

bool
NpuGuarder::setTranslationRegister(std::uint32_t slot, Addr va_base,
                                   Addr pa_base, Addr size,
                                   bool from_secure)
{
    if (!from_secure) {
        ++config_violations;
        tracer.emit(0, TraceCategory::guarder, trace_name,
                    "translation-register write from non-secure "
                    "caller rejected");
        return false;
    }
    if (slot >= translation.size() || size == 0)
        return false;
    translation[slot] = TranslationRegister{true, va_base, pa_base, size};
    context_fp_valid = false;
    tracer.emit(0, TraceCategory::guarder, trace_name,
                "translation register ", slot, " = va 0x", std::hex,
                va_base, " -> pa 0x", pa_base, std::dec, " +", size,
                " B");
    return true;
}

bool
NpuGuarder::clearTranslationRegister(std::uint32_t slot, bool from_secure)
{
    if (!from_secure) {
        ++config_violations;
        return false;
    }
    if (slot >= translation.size())
        return false;
    translation[slot].valid = false;
    context_fp_valid = false;
    return true;
}

bool
NpuGuarder::clearAll(bool from_secure)
{
    if (!from_secure) {
        ++config_violations;
        tracer.emit(0, TraceCategory::guarder, trace_name,
                    "clearAll from non-secure caller rejected");
        return false;
    }
    for (auto &cr : checking)
        cr.valid = false;
    for (auto &tr : translation)
        tr.valid = false;
    context_fp_valid = false;
    tracer.emit(0, TraceCategory::guarder, trace_name,
                "all registers cleared (context teardown)");
    return true;
}

std::uint64_t
NpuGuarder::contextFingerprint(Addr va_base, Addr bytes)
{
    (void)va_base;
    (void)bytes;
    if (context_fp_valid)
        return context_fp;
    // Both register files in slot order: which window a VA hits (and
    // the PA it translates to) is exactly this state.
    std::uint64_t h = fnv_offset;
    for (const CheckingRegister &cr : checking) {
        h = hashMix(h, std::uint64_t(cr.valid));
        if (!cr.valid)
            continue;
        h = hashMix(h, cr.range.base);
        h = hashMix(h, cr.range.size);
        h = hashMix(h, std::uint64_t(cr.perm.read));
        h = hashMix(h, std::uint64_t(cr.perm.write));
        h = hashMix(h, std::uint64_t(cr.world));
    }
    for (const TranslationRegister &tr : translation) {
        h = hashMix(h, std::uint64_t(tr.valid));
        if (!tr.valid)
            continue;
        h = hashMix(h, tr.va_base);
        h = hashMix(h, tr.pa_base);
        h = hashMix(h, tr.size);
    }
    context_fp = h;
    context_fp_valid = true;
    return h;
}

} // namespace snpu
