/**
 * @file
 * The benchmark's metric names, units and directions. BENCHMARK.json
 * lists the same names; `snpu_bench --list-metrics` prints these
 * tables so the self-test can check the two agree.
 *
 * Per-layer counts are means per op over the traced phase; *_ms span
 * metrics are mean self time per call (span minus child spans).
 */

#ifndef SNPU_BENCHMARK_METRICS_HH
#define SNPU_BENCHMARK_METRICS_HH

#include <vector>

namespace snpubench
{

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better; //!< "higher" or "lower"
};

/** Host-time metrics printed with tracing off. */
inline const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s", "lower"},
        {"ops_per_s", "1/s", "higher"},
        {"op_p50_ms", "ms", "lower"},
        {"op_p90_ms", "ms", "lower"},
        {"peak_rss_mb", "MB", "lower"},
    };
    return defs;
}

/** Per-layer metrics printed by the traced run. */
inline const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"core.soc_build_ms", "ms", "lower"},
        {"workload.compile_ms", "ms", "lower"},
        {"workload.instructions", "count/op", "lower"},
        {"core.run_ms", "ms", "lower"},
        {"core.exec_self_ms", "ms", "lower"},
        {"core.sim_cycles", "cycles/op", "lower"},
        {"core.host_ns_per_sim_cycle", "ns/cycle", "lower"},
        {"npu.instructions", "count/op", "lower"},
        {"npu.macs", "count/op", "lower"},
        {"spad.reads", "count/op", "lower"},
        {"spad.writes", "count/op", "lower"},
        {"spad.denied", "count/op", "lower"},
        {"spad.flush_bytes", "bytes/op", "lower"},
        {"dma.requests", "count/op", "lower"},
        {"dma.bytes", "bytes/op", "lower"},
        {"dma.stall_cycles_mean", "cycles", "lower"},
        {"protection.checks", "count/op", "lower"},
        {"protection.denials", "count/op", "lower"},
        {"iommu.walks", "count/op", "lower"},
        {"crypto.counter_hit_ratio", "ratio", "higher"},
        {"mem.l2_hit_ratio", "ratio", "higher"},
        {"mem.dram_bytes", "bytes/op", "lower"},
        {"mem.dram_queue_delay_mean", "cycles", "lower"},
        {"noc.pipeline_ms", "ms", "lower"},
        {"noc.flits", "count/op", "lower"},
        {"noc.handshakes", "count/op", "lower"},
        {"noc.bytes", "bytes/op", "lower"},
        {"timing_cache.hits", "count/op", "higher"},
        {"timing_cache.misses", "count/op", "lower"},
        {"timing_cache.bypasses", "count/op", "lower"},
        {"timing_cache.hit_ratio", "ratio", "higher"},
        {"timing_cache.us_per_segment", "us", "lower"},
        {"serve.window_ms", "ms", "lower"},
        {"serve.calibrate_ms", "ms", "lower"},
        {"serve.requests_offered", "count/op", "higher"},
        {"serve.completed", "count/op", "higher"},
        {"serve.rejected", "count/op", "lower"},
        {"serve.failed", "count/op", "lower"},
        {"serve.retries", "count/op", "lower"},
        {"serve.timeouts", "count/op", "lower"},
        {"serve.breaker_trips", "count/op", "lower"},
        {"serve.tokens", "count/op", "higher"},
        {"serve.queue_wait_cycles_mean", "cycles", "lower"},
        {"serve.exec_cycles_mean", "cycles", "lower"},
        {"serve.p99_latency_cycles", "cycles", "lower"},
        {"serve.ttft_p99_cycles", "cycles", "lower"},
        {"serve.itl_p99_cycles", "cycles", "lower"},
        {"serve.flush_overhead_cycles", "cycles/op", "lower"},
        {"serve.monitor_overhead_cycles", "cycles/op", "lower"},
        {"serve.recovery_overhead_cycles", "cycles/op", "lower"},
        {"tee.kv_pool_hit_ratio", "ratio", "higher"},
        {"tee.kv_alloc_cycles_per_token", "cycles", "lower"},
        {"tee.attest_handshakes", "count/op", "lower"},
        {"sim.faults_fired", "count/op", "lower"},
        {"bench.op_self_ms", "ms", "lower"},
        {"bench.trace_overhead_frac", "ratio", "lower"},
    };
    return defs;
}

} // namespace snpubench

#endif // SNPU_BENCHMARK_METRICS_HH
