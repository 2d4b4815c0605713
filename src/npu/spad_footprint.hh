/**
 * @file
 * Scratchpad footprint of an NPU program. A compiled DNN program
 * fixes every scratchpad and accumulator row it touches before it
 * runs, so the rows each stretch of it reads and writes can be
 * summarized once and a timing-only core can check and commit them
 * once per stretch instead of once per instruction — the way the
 * sNPU Isolator compares a whole access's wordline IDs in parallel
 * (§IV-B).
 *
 * The footprint is derived from the program's own code, on first use,
 * and memoized on the program (NpuProgram::spad_footprint); every
 * stretch also records a hash of its instructions, so code edited in
 * place after the derivation leaves the edited stretch to the per-row
 * checks instead of trusting rows it no longer touches. Only the
 * programs of the serving scheduler's compiled-segment cache, which
 * nothing edits, skip that hash (sealFootprint()).
 */

#ifndef SNPU_NPU_SPAD_FOOTPRINT_HH
#define SNPU_NPU_SPAD_FOOTPRINT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "npu/isa.hh"

namespace snpu
{

/** The two row-addressed memories of one NPU core. */
enum class PadId : std::uint8_t
{
    spad, //!< local scratchpad
    acc,  //!< accumulator scratchpad
};

/**
 * The derived footprint. A stretch ends after every tile and layer
 * end (so every flush point lies between stretches). Instructions that
 * act on wordline IDs, the world or a peer's scratchpad outside the
 * rows forEachRowRange() reports (see endsStretch()) are never in one.
 * Stored flat (one stretch array, one run array, both exactly sized),
 * so it stays a small fraction of the code.
 */
struct SpadFootprint
{
    /** Rows [first, first + count). */
    struct Run
    {
        std::uint32_t first = 0;
        std::uint32_t count = 0;
    };

    /** Which of a stretch's four run lists, per pad. */
    enum RunList : std::uint8_t
    {
        read_first, //!< rows read before the stretch writes them
        written,    //!< rows the stretch writes
    };

    /** Instructions [begin, end) of the program. */
    struct Stretch
    {
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
        /** First run of the stretch in SpadFootprint::runs. */
        std::uint32_t run_begin = 0;
        /** Run counts, indexed by listIndex(pad, list), in order. */
        std::uint32_t run_counts[4] = {};
        /** Total row reads and writes, indexed by PadId. */
        std::uint32_t reads[2] = {};
        std::uint32_t writes[2] = {};
        /** stretchHashStep() hash of its instructions when derived. */
        std::uint64_t code_hash[2] = {};
    };

    static constexpr std::size_t
    listIndex(PadId pad, RunList list)
    {
        return 2 * static_cast<std::size_t>(pad) + list;
    }

    /** Preload height (systolic dim) the footprint was derived for. */
    std::uint32_t dim = 0;
    /** Length of the code it was derived from. */
    std::size_t code_size = 0;
    std::vector<Stretch> stretches;
    std::vector<Run> runs;
};

/**
 * The footprint of @p prog's code for a core of array dimension
 * @p dim: derived on the first call and memoized on @p prog, derived
 * again when @p dim or the code's length changes. @p trusted (if
 * given) says whether its stretches match the code without a hash
 * check: this call derived it, or the program is sealed. Like
 * programFingerprint(), it writes the memo of a program that may be
 * shared, so a program published to other threads is derived first.
 */
const SpadFootprint &programFootprint(const NpuProgram &prog,
                                      std::uint32_t dim,
                                      bool *trusted = nullptr);

/**
 * Passkey of sealFootprint(). Only the serving scheduler's
 * compiled-segment cache (serve/core_scheduler.cc) can make one: it
 * publishes its programs const, shares them across threads and never
 * edits them. Every other holder of a program may still edit its code,
 * so its memoized stretches are hashed before each use.
 */
class FootprintSeal
{
    friend class SegmentCache;
    FootprintSeal() = default;
};

/**
 * Derive @p prog's footprint (as programFootprint()) and seal it: a
 * core trusts a sealed program's memoized stretches without hashing
 * their code on every run. Copies of @p prog start unsealed.
 */
void sealFootprint(const NpuProgram &prog, std::uint32_t dim,
                   FootprintSeal);

/**
 * Visit every scratchpad row range @p in touches, as
 * f(PadId, first, count, is_write), in access order per pad: a
 * compute reads its activation rows and (accumulating) its
 * accumulator rows before it writes them. A preload reads @p dim
 * rows (the array height). The footprint derivation and the core's
 * commit of a stretch prefix both enumerate through this one
 * function.
 */
template <typename F>
void
forEachRowRange(const Instr &in, std::uint32_t dim, F &&f)
{
    switch (in.op) {
      case Opcode::mvin:
      case Opcode::mvin_weight:
        f(PadId::spad, in.spad_row, in.rows, true);
        break;
      case Opcode::mvout:
        f(PadId::acc, in.spad_row, in.rows, false);
        break;
      case Opcode::preload:
        f(PadId::spad, in.spad_row, dim, false);
        break;
      case Opcode::compute:
        f(PadId::spad, in.spad_row, in.rows, false);
        if (in.accumulate)
            f(PadId::acc, in.spad_row2, in.rows, false);
        f(PadId::acc, in.spad_row2, in.rows, true);
        break;
      default:
        break;
    }
}

/**
 * Whether @p op acts on wordline IDs, the core's world or a peer's
 * scratchpad beyond what forEachRowRange() reports, so no footprint
 * stretch may contain it.
 */
constexpr bool
endsStretch(Opcode op)
{
    return op == Opcode::flush_spad || op == Opcode::sec_set_id ||
           op == Opcode::sec_reset_spad || op == Opcode::noc_send ||
           op == Opcode::noc_recv;
}

/**
 * Hash of every field forEachRowRange() and endsStretch() read, over a
 * stretch's instructions, in two independent lanes, each seeded with
 * stretch_hash_seed and folded one instruction at a time by
 * stretchHashStep(). Each step of a lane is a bijection of the lane,
 * so an edit of any one instruction always changes the hash; a core
 * compares it with the stretch's code_hash before trusting a stretch
 * it did not just derive, unless the program is sealed. Inline: the
 * core hashes every such stretch it runs.
 */
constexpr std::uint64_t stretch_hash_seed[2] = {0x9e3779b97f4a7c15ull,
                                                0xc2b2ae3d27d4eb4full};

inline void
stretchHashStep(std::uint64_t (&h)[2], const Instr &in)
{
    const std::uint64_t w0 =
        std::uint64_t{in.rows} |
        std::uint64_t{static_cast<std::uint8_t>(in.op)} << 32 |
        std::uint64_t{in.accumulate} << 40;
    const std::uint64_t w1 =
        std::uint64_t{in.spad_row} | std::uint64_t{in.spad_row2} << 32;
    h[0] = (h[0] ^ w0) * 0x9e3779b97f4a7c15ull;
    h[1] = (h[1] ^ w1) * 0xff51afd7ed558ccdull;
}

} // namespace snpu

#endif // SNPU_NPU_SPAD_FOOTPRINT_HH
