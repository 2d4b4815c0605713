#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "core/timing_cache.hh"
#include "metrics.hh"
#include "sim/random.hh"

namespace snpubench
{

namespace
{

/** Captured during static initialization, i.e. at process start. */
const std::chrono::steady_clock::time_point process_start =
    std::chrono::steady_clock::now();

/** Stats-tree leaf name -> per-layer counter it sums into. */
const std::map<std::string, std::string> scalar_counters = {
    {"npu_instructions", "npu.instructions"},
    {"spad_reads", "spad.reads"},
    {"spad_writes", "spad.writes"},
    {"spad_denied", "spad.denied"},
    {"flush_bytes", "spad.flush_bytes"},
    {"dma_requests", "dma.requests"},
    {"dma_bytes", "dma.bytes"},
    {"checks", "protection.checks"},
    {"denials", "protection.denials"},
    {"iommu_walks", "iommu.walks"},
    {"crypto_counter_hits", "crypto.counter_hits"},
    {"crypto_counter_misses", "crypto.counter_misses"},
    {"l2_hits", "mem.l2_hits"},
    {"l2_misses", "mem.l2_misses"},
    {"dram_bytes", "mem.dram_bytes"},
    {"noc_flits", "noc.flits"},
    {"noc_auth_handshakes", "noc.handshakes"},
    {"noc_bytes", "noc.bytes"},
};

/** Averages fold in as (sum, sample count) pairs. */
const std::map<std::string, std::string> average_counters = {
    {"dma_stall", "dma.stall"},
    {"dram_queue_delay", "mem.dram_queue"},
};

void
foldGroup(const snpu::stats::Group &g, Counters &c)
{
    for (const snpu::stats::StatBase *s : g.all()) {
        if (auto it = scalar_counters.find(s->name());
            it != scalar_counters.end()) {
            if (auto *sc = dynamic_cast<const snpu::stats::Scalar *>(s))
                c.add(it->second, sc->value());
        } else if (auto it2 = average_counters.find(s->name());
                   it2 != average_counters.end()) {
            if (auto *av =
                    dynamic_cast<const snpu::stats::Average *>(s)) {
                c.add(it2->second + "_sum", av->sum());
                c.add(it2->second + "_n",
                      static_cast<double>(av->count()));
            }
        }
    }
    for (const snpu::stats::Group *child : g.children())
        foldGroup(*child, c);
}

/** Ratio a / (a + b), 0 when both are 0. */
double
share(double a, double b)
{
    return a + b > 0 ? a / (a + b) : 0.0;
}

double
safeDiv(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** Run whole passes over the op list for at least @p seconds. */
Phase
runPhase(Workload &w, double seconds, std::uint64_t min_ops,
         SpanLog *spans, std::vector<std::uint64_t> &ref,
         std::uint64_t &next_op)
{
    // A phase never outlives this, whatever its op count.
    constexpr double hard_cap_s = 120.0;
    Phase ph;
    Probe probe{spans, &ph.counts};
    const CacheCounts cache0 = CacheCounts::now();
    const std::int64_t t0 = nowNs();
    double elapsed = 0;
    do {
        const std::int64_t pass0 = nowNs();
        for (std::size_t i = 0; i < w.size(); ++i) {
            if (spans)
                spans->setOp(next_op);
            ++next_op;
            OpResult r;
            {
                Scope op(spans, "op");
                r = w.run(i, probe);
            }
            ph.lat_ms.push_back(static_cast<double>(r.lib_ns) / 1e6);
            ph.counts.add("core.sim_cycles", r.sim_cycles);
            bool ok = r.ok;
            if (ok && ref[i] == 0)
                ref[i] = r.digest;
            else if (ok && ref[i] != r.digest)
                ok = false;
            if (!ok) {
                ++ph.failed;
                std::fprintf(stderr, "op %zu failed: %s\n", i,
                             r.ok ? "output digest changed"
                                  : r.error.c_str());
            }
        }
        const std::int64_t now = nowNs();
        ph.pass_s.push_back(static_cast<double>(now - pass0) / 1e9);
        elapsed = static_cast<double>(now - t0) / 1e9;
    } while ((elapsed < seconds || ph.lat_ms.size() < min_ops) &&
             elapsed < hard_cap_s);
    ph.cache = CacheCounts::now() - cache0;
    return ph;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** Per-layer metrics of a traced phase; see metrics.hh for units. */
std::map<std::string, double>
perLayer(const Phase &untraced, const Phase &traced,
         const SpanLog &spans)
{
    const Counters &c = traced.counts;
    const double ops = static_cast<double>(traced.lat_ms.size());
    const auto tot = spans.totals();
    const auto selfMs = [&tot](const char *name) {
        auto it = tot.find(name);
        if (it == tot.end() || it->second.calls == 0)
            return 0.0;
        return static_cast<double>(it->second.self_ns) / 1e6 /
               static_cast<double>(it->second.calls);
    };
    const auto totalNs = [&tot](const char *name) {
        auto it = tot.find(name);
        return it == tot.end() ? 0.0
                               : static_cast<double>(it->second.total_ns);
    };
    const auto perOp = [&](const char *name) {
        return safeDiv(c.get(name), ops);
    };

    std::map<std::string, double> m;
    m["core.soc_build_ms"] = selfMs("core.soc_build");
    m["workload.compile_ms"] = selfMs("workload.compile");
    m["workload.instructions"] = safeDiv(c.get("workload.instructions"),
                                         c.get("workload.compiles"));
    m["core.run_ms"] = selfMs("core.run");
    m["core.exec_self_ms"] =
        std::max(0.0, m["core.run_ms"] - m["workload.compile_ms"]);
    m["core.sim_cycles"] = perOp("core.sim_cycles");
    m["core.host_ns_per_sim_cycle"] =
        safeDiv(totalNs("core.run") + totalNs("noc.pipeline") +
                    totalNs("serve.window"),
                c.get("core.sim_cycles"));
    for (const char *name :
         {"npu.instructions", "npu.macs", "spad.reads", "spad.writes",
          "spad.denied", "spad.flush_bytes", "dma.requests",
          "dma.bytes", "protection.checks", "protection.denials",
          "iommu.walks", "mem.dram_bytes", "noc.flits",
          "noc.handshakes", "noc.bytes"})
        m[name] = perOp(name);
    m["dma.stall_cycles_mean"] =
        safeDiv(c.get("dma.stall_sum"), c.get("dma.stall_n"));
    m["crypto.counter_hit_ratio"] = share(
        c.get("crypto.counter_hits"), c.get("crypto.counter_misses"));
    m["mem.l2_hit_ratio"] =
        share(c.get("mem.l2_hits"), c.get("mem.l2_misses"));
    m["mem.dram_queue_delay_mean"] =
        safeDiv(c.get("mem.dram_queue_sum"), c.get("mem.dram_queue_n"));
    m["noc.pipeline_ms"] = selfMs("noc.pipeline");

    const CacheCounts &cc = traced.cache;
    m["timing_cache.hits"] = safeDiv(static_cast<double>(cc.hits), ops);
    m["timing_cache.misses"] =
        safeDiv(static_cast<double>(cc.misses), ops);
    m["timing_cache.bypasses"] =
        safeDiv(static_cast<double>(cc.bypasses), ops);
    m["timing_cache.hit_ratio"] = cc.hitRatio();
    m["timing_cache.us_per_segment"] =
        safeDiv(totalNs("serve.window") / 1e3,
                static_cast<double>(cc.lookups()));

    m["serve.window_ms"] = selfMs("serve.window");
    m["serve.calibrate_ms"] = selfMs("serve.calibrate");
    for (const char *name :
         {"serve.requests_offered", "serve.completed", "serve.rejected",
          "serve.failed", "serve.retries", "serve.timeouts",
          "serve.breaker_trips", "serve.tokens",
          "serve.p99_latency_cycles", "serve.ttft_p99_cycles",
          "serve.itl_p99_cycles", "serve.flush_overhead_cycles",
          "serve.monitor_overhead_cycles",
          "serve.recovery_overhead_cycles", "tee.attest_handshakes",
          "sim.faults_fired"})
        m[name] = perOp(name);
    m["serve.queue_wait_cycles_mean"] =
        safeDiv(c.get("serve.queue_wait_sum"), c.get("serve.spans"));
    m["serve.exec_cycles_mean"] =
        safeDiv(c.get("serve.exec_sum"), c.get("serve.spans"));
    m["tee.kv_pool_hit_ratio"] =
        share(c.get("tee.kv_pool_hits"), c.get("tee.kv_pool_misses"));
    m["tee.kv_alloc_cycles_per_token"] =
        safeDiv(c.get("tee.kv_alloc_cycles"), c.get("serve.tokens"));

    m["bench.op_self_ms"] = selfMs("op");
    const double base_rate = opsPerSec(untraced.lat_ms);
    m["bench.trace_overhead_frac"] =
        base_rate > 0 ? 1.0 - opsPerSec(traced.lat_ms) / base_rate : 0.0;
    return m;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - process_start)
        .count();
}

// --- SpanLog ----------------------------------------------------------

std::int32_t
SpanLog::open(const char *name)
{
    Span s;
    s.name = name;
    s.start_ns = nowNs();
    s.op = cur_op;
    s.parent = stack.empty() ? -1 : stack.back();
    spans_.push_back(std::move(s));
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack.push_back(id);
    return id;
}

void
SpanLog::close(std::int32_t id)
{
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.dur_ns = nowNs() - s.start_ns;
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
}

std::map<std::string, SpanLog::Totals>
SpanLog::totals() const
{
    std::map<std::string, Totals> t;
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] += s.dur_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Totals &tt = t[spans_[i].name];
        ++tt.calls;
        tt.total_ns += spans_[i].dur_ns;
        tt.self_ns += spans_[i].dur_ns - child_ns[i];
    }
    return t;
}

bool
SpanLog::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string &layer = s.name;
        const std::string cat = layer.substr(0, layer.find('.'));
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"op\":%llu,\"parent\":%d}}\n",
                     i ? "," : "", layer.c_str(), cat.c_str(),
                     static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.dur_ns) / 1e3, i,
                     static_cast<unsigned long long>(s.op), s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

// --- Counters / Digest ------------------------------------------------

double
Counters::get(const std::string &name) const
{
    auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
}

void
addSocCounters(snpu::Soc &soc, Counters &c)
{
    for (const snpu::stats::Group *g : soc.registry().groups())
        foldGroup(*g, c);
}

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
}

Digest &
Digest::add(std::uint64_t v)
{
    bytes(&v, sizeof v);
    return *this;
}

Digest &
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
}

Digest &
Digest::add(const std::string &s)
{
    bytes(s.data(), s.size());
    return add(static_cast<std::uint64_t>(s.size()));
}

Digest &
Digest::addRegistry(snpu::Soc &soc)
{
    std::ostringstream os;
    soc.registry().dumpJson(os);
    return add(os.str());
}

std::vector<double>
Phase::passLatencies(std::size_t i) const
{
    const std::size_t n = lat_ms.size() / pass_s.size();
    return {lat_ms.begin() + i * n, lat_ms.begin() + (i + 1) * n};
}

double
opsPerSec(const std::vector<double> &lat_ms)
{
    double ms = 0;
    for (double v : lat_ms)
        ms += v;
    return ms > 0 ? static_cast<double>(lat_ms.size()) * 1e3 / ms : 0.0;
}

CacheCounts
CacheCounts::now()
{
    const snpu::TimingCache &tc = snpu::TimingCache::global();
    return {tc.hits(), tc.misses(), tc.bypasses()};
}

// --- statistics -------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 1)
        return v[0];
    // Weight of order statistic i is the Beta(a, b) mass on
    // [(i-1)/n, i/n], integrated by the midpoint rule (the density
    // may be unbounded at the ends) and renormalized.
    const double a = q * static_cast<double>(n + 1);
    const double b = (1.0 - q) * static_cast<double>(n + 1);
    const double log_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
    constexpr int steps = 32;
    const double h = 1.0 / (static_cast<double>(n) * steps);
    double est = 0, total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        double w = 0;
        for (int k = 0; k < steps; ++k) {
            const double t =
                (static_cast<double>(i * steps + k) + 0.5) * h;
            w += std::exp((a - 1) * std::log(t) +
                          (b - 1) * std::log1p(-t) - log_beta);
        }
        est += w * v[i];
        total += w;
    }
    return total > 0 ? est / total : median(v);
}

// --- benchmark run ------------------------------------------------------

std::uint64_t
passDigest(Workload &w)
{
    Counters discard;
    Probe probe{nullptr, &discard};
    Digest d;
    for (std::size_t i = 0; i < w.size(); ++i) {
        const OpResult r = w.run(i, probe);
        d.add(static_cast<std::uint64_t>(r.ok)).add(r.digest);
    }
    return d.value();
}

int
runBenchmark(Workload &w, const Options &opts)
{
    // Set-up: calibration and warm-up, repeated; the first rep also
    // counts process start-up. The traced run traces the last rep.
    SpanLog spans;
    Counters setup_counts;
    std::vector<double> setup_s;
    for (int r = 0; r < setup_reps; ++r) {
        const bool traced = opts.trace && r == setup_reps - 1;
        Probe probe{traced ? &spans : nullptr, &setup_counts};
        const std::int64_t t0 = r == 0 ? 0 : nowNs();
        {
            Scope s(probe.spans, "setup");
            w.setup(probe);
        }
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    const auto live = w.setupDigests();

    // Timed phases over whole passes of the op list. Every op's
    // digest must match the first pass's (fresh SoCs, same inputs).
    // The traced run only needs whole passes; the ops floor is for
    // the end-to-end percentiles.
    const std::uint64_t min_ops =
        opts.smoke || opts.trace ? 1 : min_timed_ops;
    std::vector<std::uint64_t> ref(w.size(), 0);
    std::uint64_t next_op = 1;
    const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
    Phase base = runPhase(w, untraced_s, min_ops, nullptr, ref, next_op);
    Phase traced;
    if (opts.trace)
        traced = runPhase(w, opts.seconds - untraced_s, min_ops, &spans,
                          ref, next_op);

    std::uint64_t attempted = base.lat_ms.size() + traced.lat_ms.size();
    std::uint64_t failed = base.failed + traced.failed;

    // Seeded re-run sample on fresh SoCs.
    snpu::Rng pick(opts.seed ^ 0x5a5a5a5a5a5a5a5aull);
    constexpr int resample = 3;
    Counters discard;
    for (int k = 0; k < resample; ++k) {
        const std::size_t i = pick.below(w.size());
        Probe probe{nullptr, &discard};
        const OpResult r = w.run(i, probe);
        ++attempted;
        if (!r.ok || r.digest != ref[i]) {
            ++failed;
            std::fprintf(stderr, "re-run of op %zu does not match\n", i);
        }
    }
    // Warm-replay parity: ops the set-up ran live against their
    // replayed timed-phase digests.
    for (const auto &[i, d] : live) {
        ++attempted;
        if (d != ref.at(i)) {
            ++failed;
            std::fprintf(stderr,
                         "op %zu: warm replay differs from live run\n",
                         i);
        }
    }

    std::vector<std::string> violations;
    if (std::string why = w.guard(base); !why.empty())
        violations.push_back(why);
    if (opts.trace) {
        if (std::string why = w.guard(traced); !why.empty())
            violations.push_back("traced: " + why);
        if (base.cache.hitRatio() != traced.cache.hitRatio())
            violations.push_back(
                "timing-cache hit ratio differs traced vs untraced");
    }
    for (const std::string &v : violations)
        std::fprintf(stderr, "guard violated: %s\n", v.c_str());

    Digest out;
    for (std::uint64_t d : ref)
        out.add(d);
    std::printf("output_digest %s %016llx\n", opts.workload.c_str(),
                static_cast<unsigned long long>(out.value()));

    const double failed_frac = safeDiv(static_cast<double>(failed),
                                       static_cast<double>(attempted));
    std::map<std::string, double> values;
    const std::vector<MetricDef> *defs = &endToEndMetrics();
    if (opts.trace) {
        values = perLayer(base, traced, spans);
        defs = &perLayerMetrics();
        if (!opts.trace_out.empty() && !spans.writeChrome(opts.trace_out)) {
            std::fprintf(stderr, "cannot write trace %s\n",
                         opts.trace_out.c_str());
            return 1;
        }
        for (const auto &[name, t] : spans.totals())
            std::printf("span %-18s calls=%-6llu total_ms=%.3f "
                        "self_ms=%.3f\n",
                        name.c_str(),
                        static_cast<unsigned long long>(t.calls),
                        static_cast<double>(t.total_ns) / 1e6,
                        static_cast<double>(t.self_ns) / 1e6);
    }
    const std::vector<double> &lat = base.lat_ms;
    if (!opts.trace) {
        values["setup_s"] = median(setup_s);
        values["ops_per_s"] = opsPerSec(lat);
        values["op_p50_ms"] = quantile(lat, 0.5);
        values["op_p90_ms"] = quantile(lat, 0.9);
        values["peak_rss_mb"] = peakRssMb();
    }
    for (std::size_t i = 0; i < base.pass_s.size(); ++i) {
        const std::vector<double> pl = base.passLatencies(i);
        std::printf("pass %-3zu %.4f s  ops/s %.4f  p50 %.4f ms  "
                    "p90 %.4f ms\n",
                    i, base.pass_s[i], opsPerSec(pl), quantile(pl, 0.5),
                    quantile(pl, 0.9));
    }
    std::printf("samples %s timed_ops=%zu passes=%zu p90_beyond=%zu "
                "failed_frac=%s\n",
                opts.workload.c_str(), lat.size(), base.pass_s.size(),
                lat.size() - static_cast<std::size_t>(
                                 std::ceil(0.9 * lat.size())),
                fmt(failed_frac).c_str());
    for (const MetricDef &d : *defs)
        std::printf("metric %-32s %s %s\n", d.name, fmt(values[d.name]).c_str(),
                    d.unit);

    const bool correct = failed == 0 && violations.empty();
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < defs->size(); ++i) {
        const MetricDef &d = (*defs)[i];
        json += i ? ", " : "";
        json += "\"" + std::string(d.name) + "\": {\"value\": " +
                fmt(values[d.name]) + ", \"unit\": \"" + d.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace snpubench
