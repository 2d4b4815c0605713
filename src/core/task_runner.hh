/**
 * @file
 * Task runner: the end-to-end orchestration each experiment uses.
 * Given a Soc and a task, it compiles the model for the system's
 * effective scratchpad budget, provisions memory buffers and the
 * system-appropriate access-control state (page tables for the
 * TrustZone NPU, monitor-programmed guarder windows for sNPU,
 * nothing for the unprotected baseline), runs the program, and
 * reports timing/utilization.
 */

#ifndef SNPU_CORE_TASK_RUNNER_HH
#define SNPU_CORE_TASK_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/soc.hh"
#include "core/task.hh"
#include "noc/router_controller.hh"
#include "npu/npu_core.hh"
#include "spad/flush_engine.hh"
#include "workload/compiler.hh"

namespace snpu
{

/** Options for one run. */
struct RunOptions
{
    std::uint32_t core = 0;
    FlushGranularity flush = FlushGranularity::none;
    /** Override the scratchpad rows visible to the compiler
     *  (0 = derive from the system's isolation mode and world). */
    std::uint32_t spad_rows_override = 0;
    Tick start = 0;
    /**
     * Route the execution through the layer-timing memoization
     * cache (core/timing_cache.hh). Off by default: the cache's
     * canonicalization bracket changes the timing model (each run
     * starts from drained memory), which single-run experiments may
     * not want. Repeated-run sweeps opt in.
     */
    bool use_timing_cache = false;
};

/** Result of one run. */
struct RunResult : ExecOutcome
{
    std::uint64_t macs = 0;
    std::uint64_t mac_busy = 0;
    std::uint64_t flush_cycles = 0;
    std::uint64_t check_requests = 0;   //!< access-control checks
    std::uint64_t dma_bytes = 0;
    Tick end = 0;

    /** FLOPS utilization as in Fig 1: useful MACs over peak. */
    double
    utilization(std::uint64_t peak_macs_per_cycle) const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(macs) /
               (static_cast<double>(peak_macs_per_cycle) *
                static_cast<double>(cycles));
    }
};

/** Multi-core pipeline run result (Fig 17). */
struct PipelineResult : ExecOutcome
{
    std::uint64_t noc_bytes = 0;
    std::uint64_t transfers = 0;
};

/** The runner. */
class TaskRunner
{
  public:
    explicit TaskRunner(Soc &soc);

    /**
     * Scratchpad rows the compiler may use for @p world on this
     * system (partition mode shrinks it; everything else gets the
     * full scratchpad).
     */
    std::uint32_t effectiveSpadRows(World world) const;

    /** Compile @p task for this system. */
    NpuProgram compile(const NpuTask &task,
                       std::uint32_t spad_rows_override = 0) const;

    /** Provision buffers + access control, then run on one core. */
    RunResult run(const NpuTask &task, const RunOptions &opts = {});

    /**
     * Run a layer-pipelined multi-core inference over @p cores,
     * transferring inter-stage activations via @p noc mode
     * (Fig 17: software vs peephole vs unauthorized).
     *
     * @p num_stages controls the mapping granularity: 0 makes one
     * contiguous stage per core; a larger value (e.g. the layer
     * count) splits finer, assigning stages to cores round-robin —
     * the paper's layer-per-core mapping with a cross-core transfer
     * at every layer boundary.
     */
    PipelineResult runPipeline(const NpuTask &task,
                               const std::vector<std::uint32_t> &cores,
                               NocMode noc,
                               std::uint32_t num_stages = 0);

    /**
     * Compiler parameters for a task in @p world on this system:
     * capacity and row bases reflect the isolation mode (partition
     * mode confines each world to its scratchpad/accumulator slice).
     */
    CompilerParams compilerParams(World world,
                                  std::uint32_t spad_rows_override
                                  = 0) const;

  private:
    /**
     * VA base of the programs a task in @p world runs. Identity
     * VA=PA: the physical base doubles as the VA base so the
     * pass-through baseline works unchanged while the IOMMU and
     * Guarder still perform every translation and check.
     */
    Addr vaBase(World world) const;

    /** Install translations/windows for [va, va+bytes) -> pa. */
    Status provision(const NpuTask &task, std::uint32_t core,
                     Addr va_base, Addr bytes, Addr pa_base);

    Soc &soc;
};

} // namespace snpu

#endif // SNPU_CORE_TASK_RUNNER_HH
