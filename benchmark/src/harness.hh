/**
 * @file
 * The benchmark harness: host-time spans kept in memory, per-layer
 * counters, output digests, and the timed loop every workload runs
 * through. The harness never attaches a TraceSink to a Soc: spans are
 * taken from outside, around the calls the benchmark makes into the
 * library's public functions, so a traced run executes the same
 * program (timing cache included) as an untraced one.
 */

#ifndef SNPU_BENCHMARK_HARNESS_HH
#define SNPU_BENCHMARK_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/soc.hh"

namespace snpubench
{

/** Nanoseconds since process start (steady clock). */
std::int64_t nowNs();

/**
 * In-memory span log. Spans nest through an open-span stack: each
 * records its parent and the op id current when it opened, so every
 * span of one op shares that id.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t dur_ns = 0;
        std::uint64_t op = 0;
        std::int32_t parent = -1;
    };

    /** Duration and self time (duration minus child spans) of a name. */
    struct Totals
    {
        std::uint64_t calls = 0;
        std::int64_t total_ns = 0;
        std::int64_t self_ns = 0;
    };

    std::int32_t open(const char *name);
    void close(std::int32_t id);
    void setOp(std::uint64_t op) { cur_op = op; }

    const std::vector<Span> &spans() const { return spans_; }
    std::map<std::string, Totals> totals() const;

    /** Write Chrome trace-event JSON (opens in Perfetto). */
    bool writeChrome(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack;
    std::uint64_t cur_op = 0;
};

/** RAII span; a no-op when the log is null (tracing off). */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name)
        : log(log), id(log ? log->open(name) : -1)
    {}
    ~Scope()
    {
        if (log)
            log->close(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *log;
    std::int32_t id;
};

/** Named sums of per-layer counts across the ops of a phase. */
class Counters
{
  public:
    void add(const std::string &name, double v) { sums[name] += v; }
    double get(const std::string &name) const;

  private:
    std::map<std::string, double> sums;
};

/**
 * Fold the SoC's stats tree (every group in Soc::registry()) into
 * per-layer counters: NPU instructions, scratchpad, DMA, protection,
 * IOMMU, crypto, L2/DRAM and NoC counts.
 */
void addSocCounters(snpu::Soc &soc, Counters &c);

/** FNV-1a over the simulated outputs of one op. */
class Digest
{
  public:
    Digest &add(std::uint64_t v);
    Digest &add(double v);
    Digest &add(const std::string &s);
    /** The registry JSON of @p soc (the whole stats tree). */
    Digest &addRegistry(snpu::Soc &soc);
    std::uint64_t value() const { return h; }

  private:
    void bytes(const void *p, std::size_t n);
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** Accumulates host time into a caller's counter while alive. */
class Stopwatch
{
  public:
    explicit Stopwatch(std::int64_t &acc) : acc(acc), t0(nowNs()) {}
    ~Stopwatch() { acc += nowNs() - t0; }
    Stopwatch(const Stopwatch &) = delete;
    Stopwatch &operator=(const Stopwatch &) = delete;

  private:
    std::int64_t &acc;
    std::int64_t t0;
};

/** What a traced op hands back to the harness. */
struct Probe
{
    SpanLog *spans = nullptr;    //!< null when tracing is off
    Counters *counts = nullptr;  //!< always set
    bool traced() const { return spans != nullptr; }
};

/** Outcome of one op. */
struct OpResult
{
    bool ok = false;
    std::uint64_t digest = 0;
    /** Host time inside library calls (SoC build, run, teardown). */
    std::int64_t lib_ns = 0;
    /** Simulated cycles of the op (output, not a gated metric). */
    double sim_cycles = 0;
    std::string error;
};

/** Timing-cache counter snapshot (process-wide atomics). */
struct CacheCounts
{
    std::uint64_t hits = 0, misses = 0, bypasses = 0;
    static CacheCounts now();
    CacheCounts operator-(const CacheCounts &o) const
    {
        return {hits - o.hits, misses - o.misses, bypasses - o.bypasses};
    }
    std::uint64_t lookups() const { return hits + misses + bypasses; }
    double hitRatio() const
    {
        const std::uint64_t n = hits + misses;
        return n ? static_cast<double>(hits) / static_cast<double>(n)
                 : 0.0;
    }
};

/** One timed phase: whole passes over the op list. */
struct Phase
{
    std::uint64_t failed = 0;
    /** Host seconds of each pass. */
    std::vector<double> pass_s;
    /** Per-op host latency (ms), pass after pass in op-list order. */
    std::vector<double> lat_ms;
    CacheCounts cache;
    Counters counts;

    /** Latencies of pass @p i. */
    std::vector<double> passLatencies(std::size_t i) const;
};

/** Ops per host second over latency samples @p lat_ms. */
double opsPerSec(const std::vector<double> &lat_ms);

/** A named workload: a seeded op list plus its set-up. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Calibration and warm-up. Called several times per process; each
     * call must repeat the same work (clear what it fills).
     */
    virtual void setup(Probe &probe) = 0;

    /** Ops per pass over the fixed op list. */
    virtual std::size_t size() const = 0;

    /** Run op @p index on fresh SoCs. */
    virtual OpResult run(std::size_t index, Probe &probe) = 0;

    /**
     * Digests the last setup() produced for op indices it ran live
     * (warm-replay parity); empty when the workload has none.
     */
    virtual std::map<std::size_t, std::uint64_t> setupDigests() const
    {
        return {};
    }

    /**
     * Workload-character guard over a timed phase. Returns an empty
     * string when it holds, else why it failed.
     */
    virtual std::string guard(const Phase &phase) const = 0;
};

/** Run options parsed from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string trace_out;
};

/** Setup reps whose median is setup_s. */
constexpr int setup_reps = 3;
/** The timed phase runs whole passes and at least this many ops. */
constexpr std::uint64_t min_timed_ops = 100;

/**
 * Run @p w under @p opts and print the metric lines and the final
 * JSON result. Returns the process exit code.
 */
int runBenchmark(Workload &w, const Options &opts);

/** Digest of every op of one pass (self-test: in-process repeat). */
std::uint64_t passDigest(Workload &w);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);
/**
 * Harrell-Davis estimate of quantile @p q in (0, 1) of @p v: a
 * Beta-weighted mean of all order statistics. Unlike a single order
 * statistic it does not jump when one op of a heterogeneous op list
 * crosses a gap in the latency distribution.
 */
double quantile(std::vector<double> v, double q);

} // namespace snpubench

#endif // SNPU_BENCHMARK_HARNESS_HH
