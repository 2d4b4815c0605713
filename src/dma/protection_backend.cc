#include "dma/protection_backend.hh"

#include "sim/hashing.hh"

namespace snpu
{

/**
 * The canonical per-backend counters, allocated only when the
 * backend was constructed against a stats group. Kept behind a
 * pointer so stats-less unit-test instances stay cheap and the
 * header stays light.
 */
struct ProtectionBackend::ExportedStats
{
    explicit ExportedStats(stats::Group &g)
        : checks(g, "checks",
                 "translation/check operations performed"),
          checked_bytes(g, "checked_bytes",
                        "bytes covered by performed checks"),
          denials(g, "denials", "accesses denied by this backend"),
          denied_bytes(g, "denied_bytes",
                       "bytes covered by denied accesses"),
          contexts(g, "contexts",
                   "protection contexts installed (beginContext)")
    {
    }

    stats::Scalar checks;
    stats::Scalar checked_bytes;
    stats::Scalar denials;
    stats::Scalar denied_bytes;
    stats::Scalar contexts;
};

ProtectionBackend::ProtectionBackend(std::string name,
                                     stats::Group *stats)
    : backend_name(std::move(name)),
      timing_fp(hashMix(fnv_offset, backend_name))
{
    if (stats)
        exported = std::make_unique<ExportedStats>(*stats);
}

ProtectionBackend::~ProtectionBackend() = default;

void
ProtectionBackend::attachTrace(TraceSink *sink, const std::string &who)
{
    if (sink) {
        trace_name = who;
        tracer.attach(sink);
    } else {
        tracer.detach();
    }
}

void
ProtectionBackend::recordCheck(std::uint32_t bytes)
{
    ++n_checks;
    if (exported) {
        ++exported->checks;
        exported->checked_bytes += bytes;
    }
}

void
ProtectionBackend::recordDeny(std::uint32_t bytes)
{
    ++n_denials;
    if (exported) {
        ++exported->denials;
        exported->denied_bytes += bytes;
    }
}

void
ProtectionBackend::recordContext()
{
    if (exported)
        ++exported->contexts;
}

void
ProtectionBackend::mixTimingFingerprint(std::uint64_t v)
{
    timing_fp = hashMix(timing_fp, v);
}

bool
ProtectionBackend::injectedDenial(Tick when)
{
    return faults &&
           faults->shouldInject(FaultSite::protection_check, when);
}

} // namespace snpu
