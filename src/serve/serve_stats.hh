/**
 * @file
 * Per-tenant observability for the serving engine, built on the
 * simulator's stat package so serving counters appear in the same
 * dump as the memory-system and NPU counters. Each tenant gets a
 * named family of stats (serve_<tenant>_*); latency is a histogram
 * so tail percentiles (p50/p95/p99) come from
 * stats::Histogram::percentile().
 */

#ifndef SNPU_SERVE_SERVE_STATS_HH
#define SNPU_SERVE_SERVE_STATS_HH

#include <cstddef>
#include <deque>
#include <memory>
#include <string>

#include "sim/stats.hh"

namespace snpu
{

/** The stat family of one tenant. */
struct TenantStats
{
    /** @p attest registers the attestation family (see below). */
    TenantStats(stats::Group &group, const std::string &tenant,
                double latency_hi, std::size_t latency_buckets,
                double token_hi, bool attest = false);

    stats::Scalar completed;
    stats::Scalar rejected;
    /** Requests that failed terminally (retry budget exhausted). */
    stats::Scalar failed;
    /** Retry attempts granted after a retryable failure. */
    stats::Scalar retries;
    /** Terminal failures caused by an expired deadline or a hang. */
    stats::Scalar timeouts;
    /** Failed attempts observed (every fail transition). */
    stats::Scalar faults_observed;
    /** Circuit-breaker trips (may exceed 1 with a cool-down). */
    stats::Scalar quarantines;
    /** Half-open trial requests admitted after a cool-down. */
    stats::Scalar breaker_probes;
    /** Half-open trials that succeeded and closed the breaker. */
    stats::Scalar breaker_readmits;
    /** Modeled NPU-Monitor cycles charged to this tenant. */
    stats::Scalar monitor_cycles;
    /** Admission-queue depth, sampled at each arrival. */
    stats::Average queue_depth;
    /** Request latency (completion - arrival), in cycles. */
    stats::Histogram latency;
    /** Decode tokens retired (generating tenants only). */
    stats::Scalar tokens;
    /** Modeled per-token KV-allocation cycles (pool or first-fit). */
    stats::Scalar kv_alloc_cycles;
    /** Time to first token: arrival through prefill completion. */
    stats::Histogram ttft;
    /** Inter-token latency: gap between decode-step completions. */
    stats::Histogram token_latency;

    /**
     * Attestation family, registered only when the serving engine
     * enables the admission handshake: a stats::Scalar registers
     * itself with the group at construction, so gating must happen
     * at the member level to keep an attestation-off registry dump
     * byte-identical to builds that predate attestation.
     */
    std::unique_ptr<stats::Scalar> attest_cycles;
    /** Handshake attempts paid (retries after an injected timeout
     *  re-run the exchange). */
    std::unique_ptr<stats::Scalar> attest_handshakes;
    /** Requests denied at admission by a failed attestation. */
    std::unique_ptr<stats::Scalar> attest_denied;
};

/**
 * Registry of per-tenant stat families. Elements live in a deque so
 * their addresses stay stable for the stats::Group that holds
 * pointers to them; the registry must outlive any dump of that
 * group.
 */
class ServeStats
{
  public:
    explicit ServeStats(stats::Group &group) : group(group) {}

    /** Create the stat family for a new tenant. */
    TenantStats &add(const std::string &tenant, double latency_hi,
                     std::size_t latency_buckets, double token_hi,
                     bool attest = false);

    TenantStats &tenant(std::size_t i) { return tenants_.at(i); }
    const TenantStats &tenant(std::size_t i) const
    {
        return tenants_.at(i);
    }
    std::size_t size() const { return tenants_.size(); }

  private:
    stats::Group &group;
    std::deque<TenantStats> tenants_;
};

} // namespace snpu

#endif // SNPU_SERVE_SERVE_STATS_HH
