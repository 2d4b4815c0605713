/**
 * @file
 * The benchmark workloads. Each builds its op list from the seed and
 * passes only generated inputs (arrivals, fault plans, op order) to
 * the library.
 */

#ifndef SNPU_BENCHMARK_WORKLOADS_HH
#define SNPU_BENCHMARK_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hh"

namespace snpubench
{

/** Cold single-task paper-figure points (Figs 13, 14, 15, 17). */
std::unique_ptr<Workload> makePaperSweep(std::uint64_t seed, bool smoke);

/** Warm multi-tenant CNN serving replayed from the timing cache. */
std::unique_ptr<Workload> makeServeWarm(std::uint64_t seed, bool smoke);

/** LLM decode serving under injected faults (cache bypassed). */
std::unique_ptr<Workload> makeLlmFaults(std::uint64_t seed, bool smoke);

/** The named workload, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, bool smoke);

} // namespace snpubench

#endif // SNPU_BENCHMARK_WORKLOADS_HH
