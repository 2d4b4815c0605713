/**
 * @file
 * One NPU accelerator tile: local scratchpad, accumulator scratchpad,
 * weight-stationary systolic array, DMA engine (behind a pluggable
 * access controller), flush engine, and an ID state (the sNPU
 * per-core security bit).
 *
 * The execution engine interprets NpuPrograms with a two-cursor
 * timing model: DMA instructions advance the DMA timeline, compute
 * instructions the MAC timeline, and computes wait for the data they
 * consume — which yields natural double-buffering overlap, the same
 * first-order behaviour as Gemmini's decoupled load/execute queues.
 */

#ifndef SNPU_NPU_NPU_CORE_HH
#define SNPU_NPU_NPU_CORE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dma/dma_engine.hh"
#include "mem/mem_system.hh"
#include "noc/router_controller.hh"
#include "noc/software_noc.hh"
#include "npu/isa.hh"
#include "sim/status.hh"
#include "npu/systolic_model.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "spad/flush_engine.hh"
#include "spad/scratchpad.hh"

namespace snpu
{

/** Per-core configuration. */
struct NpuCoreParams
{
    std::uint32_t core_id = 0;
    SystolicParams systolic;
    /** Local scratchpad: 16384 x 16 B = 256 KiB (Table II). */
    std::uint32_t spad_rows = 16384;
    std::uint32_t spad_row_bytes = 16;    // 128-bit wordline
    /** Accumulator: 1024 x 64 B (512-bit wordline). */
    std::uint32_t acc_rows = 1024;
    std::uint32_t acc_row_bytes = 64;
    IsolationMode isolation = IsolationMode::id_based;
    /** Skip functional byte movement (big timing sweeps). */
    bool timing_only = false;
    DmaParams dma;
};

/** Options applied to one program execution. */
struct ExecOptions
{
    /** Strawman flush points (FlushGranularity::none disables). */
    FlushGranularity flush = FlushGranularity::none;
    /** Secure save area used by the flush engine. */
    Addr flush_save_area = 0;
    /** NoC transport for noc_send instructions. */
    NocMode noc = NocMode::unauthorized;
};


/** Outcome of running one program. */
struct ExecResult
{
    Tick start = 0;
    Tick end = 0;
    Status status = Status::ok();
    /** Cycles the systolic array was busy. */
    std::uint64_t mac_busy = 0;
    /** MAC operations actually performed. */
    std::uint64_t macs = 0;
    /** Security denials observed (spad / DMA / NoC). */
    std::uint64_t violations = 0;
    /** Flush/restore overhead cycles injected. */
    std::uint64_t flush_cycles = 0;

    Tick cycles() const { return end - start; }

    bool ok() const { return status.isOk(); }
    const std::string &error() const { return status.message(); }
};

/** One NPU tile. */
class NpuCore
{
  public:
    NpuCore(stats::Group &stats, MemSystem &mem,
            ProtectionBackend &ctrl, NpuCoreParams params = {});

    std::uint32_t id() const { return params.core_id; }

    /** Current ID state (security world) of the core. */
    World idState() const { return world; }

    /**
     * Set the ID state through the secure instruction path. Rejected
     * (returns false, counts a violation) unless @p from_secure.
     */
    bool setIdState(World w, bool from_secure);

    Scratchpad &scratchpad() { return *spad; }
    Scratchpad &accumulator() { return *acc; }
    DmaEngine &dma() { return *dma_engine; }
    SystolicArray &array() { return systolic; }
    FlushEngine &flusher() { return *flush_engine; }

    /** Attach the NoC transports (done by the device). */
    void attachNoc(NocFabric *fabric, SoftwareNoc *swnoc);

    /**
     * Attach (or detach with nullptr) an execution trace sink. The
     * sink fans out to the core's scratchpads and DMA engine, which
     * emit as "core<N>.spad" / "core<N>.acc" / "core<N>.dma".
     */
    void attachTrace(TraceSink *sink);

    /**
     * Arm (or disarm with nullptr) the fault injector on this core
     * and its subordinate engines (scratchpads, DMA). The core itself
     * probes task_hang at run() entry and checks the scratchpads'
     * corruption counters at run() exit, downgrading a silently
     * corrupted result to StatusCode::degraded.
     */
    void armFaults(FaultInjector *inj);

    /** Execute @p program starting at @p start. */
    ExecResult run(Tick start, const NpuProgram &program,
                   const ExecOptions &opts = {});

    const NpuCoreParams &coreParams() const { return params; }

  private:
    /** One contiguous run of rows an instruction reads or writes. */
    struct RowRange
    {
        Scratchpad &pad;
        std::uint32_t first;
        std::uint32_t count;
        bool is_write;
    };

    /**
     * Timing-only fast path: when every range is allowed, commit
     * them all (one ID check per range, as the hardware compares an
     * access's wordlines in parallel) and return true. Otherwise
     * change nothing and return false; the caller then runs its
     * per-row loop, which reports the first denied row exactly.
     * Forced inline: every timing-only load batch, preload and
     * compute commits through it, and inlined into a caller with a
     * fixed range list it folds to straight-line checks.
     */
    [[gnu::always_inline]] bool
    commitRanges(std::span<const RowRange> ranges)
    {
        for (const RowRange &r : ranges) {
            if (!r.pad.rangeAllowed(world, r.first, r.count, r.is_write))
                return false;
        }
        for (const RowRange &r : ranges)
            r.pad.commitRange(world, r.first, r.count, r.is_write);
        return true;
    }

    /**
     * Execute a group of consecutive load instructions as parallel
     * DMA channel streams. The batch never extends past instruction
     * index @p batch_stop (the next flush boundary). @return
     * instructions consumed, 0 on failure.
     */
    std::size_t execLoadBatch(const NpuProgram &program,
                              std::size_t pc, std::size_t batch_stop,
                              Tick &dma_t, ExecResult &res);
    bool execMvout(const Instr &in, Tick &dma_t, Tick mac_t,
                   ExecResult &res);
    bool execPreload(const Instr &in, ExecResult &res);
    bool execCompute(const Instr &in, Tick &mac_t, Tick dma_ready,
                     ExecResult &res);
    bool execNocSend(const Instr &in, Tick &t, const ExecOptions &opts,
                     ExecResult &res);
    void fail(ExecResult &res, const std::string &why,
              StatusCode code = StatusCode::exec_failed);

    NpuCoreParams params;
    MemSystem &mem;
    World world = World::normal;

    /**
     * This tile's stats live in a "core<id>" child group (with
     * "spad" / "acc" sub-groups for the two scratchpads), so ten
     * identical tiles never collide in the SoC's group.
     */
    stats::Group core_group;
    stats::Group spad_group;
    stats::Group acc_group;

    std::unique_ptr<Scratchpad> spad;
    std::unique_ptr<Scratchpad> acc;
    SystolicArray systolic;
    std::unique_ptr<DmaEngine> dma_engine;
    std::unique_ptr<FlushEngine> flush_engine;
    NocFabric *noc_fabric = nullptr;
    SoftwareNoc *software_noc = nullptr;
    FaultInjector *faults = nullptr;

    /**
     * execLoadBatch() scratch, cleared per batch and never shrunk, so
     * a load batch allocates nothing once the vectors have grown to
     * the channel count. The core runs on one thread.
     */
    std::vector<DmaRequest> batch_reqs;
    std::vector<std::vector<std::uint8_t>> batch_storage;
    std::vector<std::vector<std::uint8_t> *> batch_buffers;
    std::vector<RowRange> batch_ranges;

    Activation activation = Activation::none;
    Tracer tracer;
    std::string trace_name;

    stats::Scalar instructions;
    stats::Scalar sec_violations;
    stats::Scalar programs_run;
};

} // namespace snpu

#endif // SNPU_NPU_NPU_CORE_HH
