/**
 * @file
 * Gemmini-like NPU instruction set. The tiling compiler lowers DNN
 * layers into streams of these instructions; the NPU core's execution
 * engine interprets them with the systolic timing model.
 *
 * Security-relevant instructions (sec_set_id, sec_reset_spad, and
 * guarder register programming) carry a privileged bit that the
 * secure loader sets; the execution engine refuses them otherwise,
 * modeling the "dedicated secure instruction" of §IV-B/§IV-C.
 */

#ifndef SNPU_NPU_ISA_HH
#define SNPU_NPU_ISA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/mapped_allocator.hh"
#include "sim/types.hh"

namespace snpu
{

/** NPU opcodes. */
enum class Opcode : std::uint8_t
{
    config,          //!< set execution modes (activation, dataflow)
    mvin,            //!< DMA: memory -> local scratchpad rows
    mvin_weight,     //!< DMA: memory -> weight scratchpad rows
    mvout,           //!< DMA: accumulator rows -> memory
    preload,         //!< load a 16x16 weight tile into the PE array
    compute,         //!< systolic matmul: A rows x loaded weights
    noc_send,        //!< send scratchpad rows to another core
    noc_recv,        //!< expect scratchpad rows from another core
    fence,           //!< wait for all outstanding operations
    flush_spad,      //!< save/scrub scratchpad context (strawman)
    sec_set_id,      //!< privileged: set the core's ID state
    sec_reset_spad,  //!< privileged: reset secure rows to non-secure
};

const char *opcodeName(Opcode op);

/** Activation applied on mvout. */
enum class Activation : std::uint8_t
{
    none,
    relu,
};

/** One NPU instruction (a union of per-opcode fields). */
struct Instr
{
    Opcode op = Opcode::fence;

    /** mvin/mvout: virtual DMA address. */
    Addr vaddr = 0;
    /** mvin/mvout/preload/compute/noc/sec_reset: scratchpad row. */
    std::uint32_t spad_row = 0;
    /** second scratchpad row (compute: accumulator row). */
    std::uint32_t spad_row2 = 0;
    /** number of rows involved. */
    std::uint32_t rows = 0;
    /** compute: K-dimension length in elements (<= array dim). */
    std::uint32_t k = 0;
    /** noc_send/noc_recv: peer core id. */
    std::uint32_t peer = 0;
    /** config: activation selection. */
    Activation act = Activation::none;
    /** compute: accumulate into (true) or overwrite (false) acc rows. */
    bool accumulate = false;
    /** privileged-instruction bit (set only by the secure loader). */
    bool privileged = false;
    /** sec_set_id: target ID state. */
    World world = World::normal;

    std::string toString() const;
    bool operator==(const Instr &) const = default;
};

/** A compiled NPU program plus metadata used by the schedulers. */
struct NpuProgram
{
    /**
     * The instruction stream. A large model's stream runs to tens of
     * MB; such a stream takes its own mapping (sim/mapped_allocator.hh).
     */
    std::vector<Instr, MappedAllocator<Instr>> code;
    /** Instruction index of each layer boundary (for flush points). */
    std::vector<std::size_t> layer_ends;
    /** Instruction index of each tile boundary (for flush points). */
    std::vector<std::size_t> tile_ends;
    /** Ideal MAC operations (for utilization accounting). */
    std::uint64_t ideal_macs = 0;
    /** Scratchpad rows the program actually uses. */
    std::uint32_t spad_rows_used = 0;
    /** Live working-set rows at a tile boundary (flush cost model). */
    std::uint32_t tile_live_rows = 0;

    /**
     * Lazily computed timing-cache identity (workload/layer_timing).
     * Mutable caches only: the program itself is immutable once
     * compiled, so the fingerprint never needs invalidation.
     */
    mutable std::uint64_t timing_fp = 0;
    mutable bool timing_fp_valid = false;
    /** False when the program contains ops the cache cannot replay. */
    mutable bool timing_cacheable = true;
};

} // namespace snpu

#endif // SNPU_NPU_ISA_HH
