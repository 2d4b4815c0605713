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
#include <string>
#include <string_view>
#include <vector>

#include "dma/dma_engine.hh"
#include "mem/mem_system.hh"
#include "noc/router_controller.hh"
#include "noc/software_noc.hh"
#include "npu/isa.hh"
#include "npu/spad_footprint.hh"
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
    std::uint32_t spad_row_bytes = spad_wordline_bytes;
    /** Accumulator rows of NpuCore::acc_row_bytes each. */
    std::uint32_t acc_rows = 1024;
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
    /** Accumulator wordline: 64 B (512 bits). */
    static constexpr std::uint32_t acc_row_bytes = 64;

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
    /**
     * Whether footprint stretch @p s still describes @p code (its
     * instructions hash as they did when it was derived; null when
     * the footprint is trusted as is) and its rows may all be
     * accessed by the current world: every row in range, every row
     * it reads before writing holding the world's ID (id_based),
     * every row on the world's side (partition). No side effects.
     */
    bool stretchAllowed(const Instr *code, const SpadFootprint &fp,
                        const SpadFootprint::Stretch &s) const;

    /**
     * Commit the whole approved stretch @p s at once, with exactly
     * the effects its instructions' per-row accesses would have had.
     */
    void commitStretch(const SpadFootprint &fp,
                       const SpadFootprint::Stretch &s);

    /**
     * Commit the rows of code[@p begin, @p end) of an approved
     * stretch instruction by instruction: the executed prefix of a
     * stretch that a failed DMA or an injected read denial cut short.
     */
    void commitPrefix(const NpuProgram &program, std::size_t begin,
                      std::size_t end);

    /**
     * Execute a group of consecutive load instructions as parallel
     * DMA channel streams. The batch never extends past instruction
     * index @p batch_stop (the next flush or stretch boundary).
     * @return instructions consumed, 0 on failure.
     *
     * With @p checked (the instruction lies in an approved footprint
     * stretch) this and the three below do timing only, and probe
     * their reads if probe_reads: the stretch commits their rows
     * when it ends.
     */
    std::size_t execLoadBatch(const NpuProgram &program,
                              std::size_t pc, std::size_t batch_stop,
                              bool checked, Tick &dma_t,
                              ExecResult &res);
    bool execMvout(const Instr &in, bool checked, Tick &dma_t,
                   Tick mac_t, ExecResult &res);
    bool execPreload(const Instr &in, bool checked, ExecResult &res);
    bool execCompute(const Instr &in, bool checked, Tick &mac_t,
                     Tick dma_ready, ExecResult &res);
    /**
     * The probed reads of compute @p in in an approved stretch;
     * false, with the rows written before the denial committed, if
     * an injected fault denies one.
     */
    bool probeComputeReads(const Instr &in, ExecResult &res);
    bool execNocSend(const Instr &in, Tick &t, const ExecOptions &opts,
                     ExecResult &res);
    /** Out of line and taking a view, so no caller builds a string. */
    [[gnu::cold, gnu::noinline]] void
    fail(ExecResult &res, std::string_view why,
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

    /**
     * Functional-mode row and tile buffers of execCompute(),
     * execPreload() and execMvout(), sized once by the constructor
     * (empty on a timing-only core), so no instruction allocates.
     * out_buf holds a whole accumulator's worth of output rows: a
     * longer mvout is denied at its first out-of-range row.
     */
    std::vector<std::uint8_t> row_buf;
    std::vector<std::uint8_t> acc_buf;
    std::vector<std::int8_t> tile_buf;
    std::vector<std::uint8_t> out_buf;

    /**
     * The armed fault plan probes scratchpad reads: an approved
     * stretch reads row by row through Scratchpad::probeRead(), and
     * its commit counts no reads. Set by run().
     */
    bool probe_reads = false;

    Activation activation = Activation::none;
    Tracer tracer;
    std::string trace_name;

    stats::Scalar instructions;
    stats::Scalar sec_violations;
    stats::Scalar programs_run;
};

} // namespace snpu

#endif // SNPU_NPU_NPU_CORE_HH
