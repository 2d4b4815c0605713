/**
 * @file
 * Canonical keying for the layer-timing memoization cache. A compiled
 * layer segment executed on a canonicalized tile is a pure function
 * of (program, core configuration, core context, protection backend
 * context): two executions with equal keys produce the same elapsed
 * cycles, the same stat deltas, and the same wordline-ID effects.
 * This module computes that key; the cache itself lives in
 * core/timing_cache.hh.
 *
 * Key material, in mixing order:
 *  - the op kind (program execution vs scheduler context flush);
 *  - the core index (stat paths below the SoC root embed it);
 *  - the program fingerprint: every field of every instruction —
 *    including absolute DMA virtual addresses — plus the boundary
 *    metadata (arenas are laid out deterministically, so absolute
 *    addresses still repeat across requests of the same stream);
 *  - the live core configuration (geometry, isolation mode and
 *    partition boundary, timing-only flag, DMA shape);
 *  - the execution options and the core's current world;
 *  - the scratchpad + accumulator wordline-ID images (denials and
 *    ID flips depend on the incoming image, not just the program);
 *  - the backend's timing fingerprint (kind + timing parameters) and
 *    context fingerprint (the translation/check state covering the
 *    program's VA window).
 */

#ifndef SNPU_WORKLOAD_LAYER_TIMING_HH
#define SNPU_WORKLOAD_LAYER_TIMING_HH

#include <cstdint>

#include "dma/protection_backend.hh"
#include "npu/npu_core.hh"
#include "workload/layer.hh"

namespace snpu
{

/** A fully mixed cache key plus its cacheability verdict. */
struct LayerTimingKey
{
    std::uint64_t hash = 0;
    /**
     * False when the op's side effects cannot be replayed from a
     * cache entry (programs with flush/NoC/world-changing ops, or
     * exec options that trigger mid-program flushes).
     */
    bool cacheable = true;
};

/**
 * Timing fingerprint of a compiled program: all instruction fields
 * plus boundary metadata. Computed once and memoized on the program
 * (the compiler output is immutable after compilation).
 */
std::uint64_t programFingerprint(const NpuProgram &prog);

/**
 * Fingerprint of a model's layer shapes (names, kinds, GEMM dims,
 * activation flags). Two equal-fingerprint models compile to the same
 * programs under equal compiler parameters — the compiled-segment
 * cache in the serving scheduler keys on this.
 */
std::uint64_t modelFingerprint(const ModelSpec &model);

/**
 * Whether the cache can replay this program's side effects: false
 * when it contains flush_spad (functional memory traffic), NoC ops
 * (fabric state the brackets do not canonicalize), or sec_set_id
 * (core world changes).
 */
bool programCacheable(const NpuProgram &prog);

/**
 * Fingerprint of the live tile configuration: geometry, isolation
 * mode and partition boundary of both on-tile SRAMs (read live, so a
 * mid-run setMode() changes the key and can never hit a stale
 * entry), timing-only flag, and DMA shape.
 */
std::uint64_t coreConfigFingerprint(NpuCore &core);

/**
 * Fingerprint of both wordline-ID images (scratchpad + accumulator):
 * their memoized Scratchpad::idFingerprint() values mixed together,
 * so a key costs no image hashing unless an image changed since the
 * last one.
 */
std::uint64_t idImageFingerprint(NpuCore &core);

/**
 * Assemble the key for one program execution. @p soc_config_fp
 * mixes in the SoC-level timing configuration (memory system,
 * backend name/parameters via ProtectionBackend::timingFingerprint).
 */
LayerTimingKey makeExecKey(std::uint32_t core_index, NpuCore &core,
                           ProtectionBackend &backend,
                           const NpuProgram &prog,
                           const ExecOptions &eo, Addr va_base,
                           Addr va_bytes, std::uint64_t soc_config_fp);

/**
 * Assemble the key for a scheduler context switch (save + scrub +
 * restore of @p live_rows through @p save_area). The ID image does
 * not participate: the flush path is raw and its timing depends only
 * on addresses.
 */
LayerTimingKey makeFlushKey(std::uint32_t core_index, NpuCore &core,
                            std::uint32_t live_rows, Addr save_area,
                            std::uint64_t soc_config_fp);

} // namespace snpu

#endif // SNPU_WORKLOAD_LAYER_TIMING_HH
