/**
 * @file
 * Tiling compiler: lowers GEMM-form layers into Gemmini-style NPU
 * instruction streams under a scratchpad capacity budget.
 *
 * Dataflow per layer (output-stationary over M-chunks, weight-
 * stationary inside the array):
 *
 *   for each M-chunk (Tm rows):
 *       mvin the A chunk (Tm x K), one request per K-tile column
 *       for each N-tile column:
 *           mvin_weight the column's K-tiles (unless resident)
 *           for each K-tile: preload + compute (accumulating)
 *           mvout the Tm x 16 output tile
 *
 * The M-chunk height Tm is the capacity knob: a smaller scratchpad
 * forces smaller chunks, so the full weight matrix streams from DRAM
 * more times (once per chunk). That is precisely why weight-heavy
 * nets (AlexNet FC, BERT) are scratchpad-sensitive in Fig 15 while
 * small-weight streaming nets (YOLO-lite, MobileNet) are not. When
 * even double-buffering does not fit, the compiler emits fences that
 * serialize DMA against compute — the second capacity cliff.
 */

#ifndef SNPU_WORKLOAD_COMPILER_HH
#define SNPU_WORKLOAD_COMPILER_HH

#include <cstdint>
#include <vector>

#include "npu/isa.hh"
#include "sim/types.hh"
#include "workload/layer.hh"

namespace snpu
{

/** Compiler view of the target core. */
struct CompilerParams
{
    /** Systolic array dimension. */
    std::uint32_t dim = 16;
    /** Scratchpad rows available to this task (capacity knob). */
    std::uint32_t spad_rows = 16384;
    /** First scratchpad row this task owns (static partition). */
    std::uint32_t spad_row_base = 0;
    /** Accumulator rows available. */
    std::uint32_t acc_rows = 1024;
    /** First accumulator row this task owns. */
    std::uint32_t acc_row_base = 0;
};

/** Virtual-address layout of one layer's buffers. */
struct LayerBuffers
{
    Addr a_base = 0;   //!< input activations (M x K int8)
    Addr w_base = 0;   //!< weights (K x N int8)
    Addr c_base = 0;   //!< output activations (M x N int8)
};

/** Options for whole-model compilation. */
struct CompileOptions
{
    /**
     * Virtual address of the first layer's input buffer; 0 allocates
     * a fresh buffer. Pipeline stages chain a previous stage's output
     * buffer here (the software-NoC path).
     */
    Addr input_base = 0;
    /**
     * Omit the first layer's activation loads: the data arrives in
     * the scratchpad over the NoC (direct-NoC pipeline stages).
     */
    bool skip_first_a_load = false;
    /**
     * Omit the last layer's output stores: the data leaves over the
     * NoC instead of through memory.
     */
    bool skip_last_c_store = false;
};

/** Per-layer compilation footprint (reported for analysis). */
struct LayerPlan
{
    std::uint32_t tm = 0;            //!< M-chunk height chosen
    std::uint32_t m_chunks = 0;
    std::uint32_t k_tiles = 0;
    std::uint32_t n_tiles = 0;
    /** K-tiles staged per weight load (== k_tiles when the whole
     *  column fits; smaller when the scratchpad is tight). */
    std::uint32_t w_seg_tiles = 0;
    bool weights_resident = false;   //!< whole W kept in scratchpad
    bool double_buffered = false;    //!< fences omitted
    std::uint64_t dma_bytes = 0;     //!< predicted DMA volume
};

/** The compiler. */
class TilingCompiler
{
  public:
    /** Upper bound on rows per DMA request. */
    static constexpr std::uint32_t max_request_rows = 512;

    explicit TilingCompiler(CompilerParams params = {});

    /** Plan one layer (no code emitted). */
    LayerPlan plan(const LayerSpec &layer) const;

    /**
     * Compile one layer, appending to @p program.
     * @p bufs supplies the layer's virtual buffer addresses.
     * @p skip_a / @p skip_c omit the activation load / output store
     * (direct-NoC pipeline boundaries).
     */
    void compileLayer(const LayerSpec &layer, const LayerBuffers &bufs,
                      NpuProgram &program, bool skip_a = false,
                      bool skip_c = false) const;

    /**
     * Compile a whole model. Virtual buffers are laid out
     * sequentially from @p va_base; layer i's input is layer i-1's
     * output buffer.
     * @param[out] va_bytes total virtual footprint used
     */
    NpuProgram compileModel(const ModelSpec &model, Addr va_base,
                            Addr *va_bytes = nullptr,
                            const CompileOptions &opts = {}) const;

    const CompilerParams &params() const { return cfg; }

  private:
    CompilerParams cfg;
};

} // namespace snpu

#endif // SNPU_WORKLOAD_COMPILER_HH
