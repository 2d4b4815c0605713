/**
 * @file
 * NPU Monitor (§IV-C, Fig 10): the only trusted software on the NPU
 * path. It combines the context setter, trusted allocator, code
 * verifier and secure loader behind the trampoline interface. The
 * driver, compiler, scheduler and ML framework all stay untrusted:
 * everything they hand over is validated here before it can touch
 * secure state.
 *
 * Launch pipeline for one secure task:
 *   1. code verifier: measure program, compare to user expectation;
 *   2. code verifier: HMAC-check + decrypt the confidential model
 *      into a trusted-allocator buffer in secure memory;
 *   3. secure loader: route-integrity check of the proposed cores;
 *   4. trusted allocator: scratchpad overlap check + reservations;
 *   5. context setter: program guarder windows + core ID states;
 *   6. secure loader: wrap the program with privileged prologue/
 *      epilogue and hand it to the caller for upload.
 */

#ifndef SNPU_TEE_MONITOR_NPU_MONITOR_HH
#define SNPU_TEE_MONITOR_NPU_MONITOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/mem_system.hh"
#include "npu/npu_device.hh"
#include "sim/fault_injector.hh"
#include "sim/stats.hh"
#include "sim/status.hh"
#include "sim/trace.hh"
#include "tee/attestation.hh"
#include "tee/monitor/code_verifier.hh"
#include "tee/monitor/context_setter.hh"
#include "tee/monitor/secure_loader.hh"
#include "tee/monitor/task_queue.hh"
#include "tee/monitor/trampoline.hh"
#include "tee/monitor/trusted_allocator.hh"
#include "tee/pmp.hh"

namespace snpu
{

/** Outcome of a launch attempt. */
struct LaunchResult
{
    Status status = Status::internal("not attempted");
    std::uint64_t task_id = 0;
    /** Per-core loadable programs (privileged wrappers installed). */
    std::vector<NpuProgram> loadable;
    /** Cores (verified) the task will run on. */
    std::vector<std::uint32_t> cores;
    /** Secure-memory address of the decrypted model. */
    Addr model_paddr = 0;

    bool ok() const { return status.isOk(); }
    /** Human-readable rejection reason (empty on success). */
    const std::string &reason() const { return status.message(); }
};

/** The NPU Monitor. */
class NpuMonitor
{
  public:
    /**
     * @p boot_measurement is the measurement register the SoC's
     * boot chain produced while bringing this monitor up (all-zero
     * when the platform models no measured boot); attestation
     * quotes extend it with the loaded model's digest.
     */
    NpuMonitor(stats::Group &stats, MemSystem &mem, NpuDevice &device,
               std::vector<NpuGuarder *> guarders, AesKey sealed_key,
               Digest boot_measurement = Digest{});

    /** Untrusted entry point (driver side). */
    Trampoline &trampoline() { return _trampoline; }

    /** Driver API: submit a task. @return task id, 0 on failure. */
    std::uint64_t submit(SecureTask task);

    /**
     * Driver API: ask the monitor to verify + load the next queued
     * task. The driver supplies nothing here; all inputs were
     * captured at submit time.
     */
    LaunchResult launchNext(const std::vector<TaskWindow> &extra_windows
                            = {});

    /** Driver API: release a finished task's secure resources. */
    bool finish(std::uint64_t task_id);

    SecureTaskQueue &queue() { return task_queue; }
    TrustedAllocator &allocator() { return trusted_alloc; }

    /**
     * Pool-caching fast path over the secure arena for per-token
     * KV-cache blocks ("monitor_pool" in the stats tree). Serving
     * code allocates decode-step KV through this instead of paying a
     * trampoline + first-fit walk per token; fault/quarantine paths
     * call kvPool().flush() so scrub hygiene revokes pooled blocks.
     */
    CachingTrustedAllocator &kvPool() { return kv_pool; }

    /**
     * The symmetric attest key (derived from the sealed key). In
     * the simulation the tenant-side verifier reads it from here;
     * the real-world analogue is out-of-band provisioning by the
     * silicon vendor.
     */
    const std::vector<std::uint8_t> &attestKey() const
    {
        return attest_key;
    }

    /**
     * Answer an attestation challenge: extend the boot MR with
     * @p model_digest (the loaded model image) and sign
     * measurement ∥ nonce with the attest key. Pure — charging the
     * handshake's simulated cycles is the caller's job (the serving
     * engine prices it on the dispatching tile's clock).
     */
    AttestQuote attestQuote(const Digest &model_digest,
                            const AttestNonce &nonce) const;

    CodeVerifier &verifier() { return code_verifier; }
    SecureLoader &loader() { return secure_loader; }
    ContextSetter &contexts() { return context_setter; }
    PmpUnit &pmp() { return pmp_unit; }

    std::uint64_t rejectedLaunches() const
    {
        return static_cast<std::uint64_t>(rejected.value());
    }

    /**
     * Arm (or disarm with nullptr) the fault injector. Armed sites:
     * monitor_verify (the code measurement spuriously mismatches)
     * and monitor_alloc (the trusted allocator reports exhaustion).
     * The monitor has no timebase, so both probe with tick 0.
     */
    void armFaults(FaultInjector *inj) { faults = inj; }

    /**
     * Attach (or detach with nullptr) a trace sink, emitting as
     * @p who (the SoC uses "monitor"). Submissions, launches,
     * rejections (with reason) and finishes trace under
     * TraceCategory::monitor; injected verifier/allocator faults
     * under TraceCategory::fault. The monitor has no timebase, so
     * all records carry tick 0.
     */
    void attachTrace(TraceSink *sink, const std::string &who);

  private:
    LaunchResult reject(SecureTask &task, Status why);

    MemSystem &mem;
    NpuDevice &device;
    SecureContext monitor_ctx;

    Trampoline _trampoline;
    SecureTaskQueue task_queue;
    TrustedAllocator trusted_alloc;
    CodeVerifier code_verifier;
    SecureLoader secure_loader;
    ContextSetter context_setter;
    PmpUnit pmp_unit;
    Digest boot_mr{};
    std::vector<std::uint8_t> attest_key;
    FaultInjector *faults = nullptr;
    Tracer tracer;
    std::string trace_name;

    stats::Scalar launches;
    stats::Scalar rejected;
    /** Arena pressure: O(1) reserved / high-water counters, kept
     *  distinct from bytesAllocated() so pool caching cannot hide
     *  exhaustion. */
    stats::Scalar arena_reserved;
    stats::Scalar arena_peak;
    CachingTrustedAllocator kv_pool;
};

} // namespace snpu

#endif // SNPU_TEE_MONITOR_NPU_MONITOR_HH
