/**
 * @file
 * NPU scratchpad with the sNPU Isolator's ID-based wordline isolation
 * (§IV-B). The scratchpad is index-addressed SRAM with no relation to
 * system memory; every wordline carries a 1-bit security ID next to
 * its (large) data payload.
 *
 * Access rules under IsolationMode::id_based:
 *  - local (exclusive) scratchpad: reads require the reader's ID to
 *    match the line's ID; writes are always allowed and overwrite the
 *    line's ID with the writer's (forced write);
 *  - global (shared) scratchpad: a non-secure agent may neither read
 *    nor write a secure line; any secure access forcibly sets the
 *    line's ID to secure. A dedicated secure instruction resets lines
 *    from secure back to non-secure.
 *
 * Alternative modes model the paper's strawmen: a static partition
 * (Fig 6a / Fig 15) and no protection at all (the LeftoverLocals
 * victim, Fig 5).
 */

#ifndef SNPU_SPAD_SCRATCHPAD_HH
#define SNPU_SPAD_SCRATCHPAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault_injector.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace snpu
{

/** How the scratchpad enforces isolation. */
enum class IsolationMode : std::uint8_t
{
    /** No checks: the insecure baseline (LeftoverLocals applies). */
    none,
    /** Static split: secure world owns rows [0, boundary). */
    partition,
    /** sNPU: per-wordline ID bits with the rules above. */
    id_based,
};

/** Local (per-core, exclusive) vs global (shared) scratchpad. */
enum class SpadScope : std::uint8_t
{
    local,
    global,
};

/** Outcome of one scratchpad access. */
enum class SpadStatus : std::uint8_t
{
    ok,
    /** Denied by the ID rule or partition boundary. */
    security_violation,
    /** Row index out of range. */
    bad_index,
};

/** Scratchpad geometry. */
struct SpadParams
{
    std::uint32_t rows = 4096;       // 4096 x 64 B = 256 KiB (Table II)
    std::uint32_t row_bytes = 64;
    SpadScope scope = SpadScope::local;
    IsolationMode mode = IsolationMode::id_based;
    /** First row owned by the normal world under partition mode. */
    std::uint32_t partition_boundary = 0;
};

/**
 * The scratchpad. Holds real bytes so that isolation failures are
 * observable as actual data leaks (the attack library depends on
 * this), and counts denied accesses for the security stats.
 */
class Scratchpad
{
  public:
    Scratchpad(stats::Group &stats, SpadParams params = {});

    /** Read one row into @p dst (row_bytes long, may be null). */
    SpadStatus read(World reader, std::uint32_t row, std::uint8_t *dst);

    /** Write one row from @p src (row_bytes long, may be null). */
    SpadStatus write(World writer, std::uint32_t row,
                     const std::uint8_t *src);

    /**
     * Whether @p count row reads (or writes) by @p world starting at
     * @p first would all succeed: every row in range, none denied by
     * the isolation rule, and — for reads — no armed fault plan
     * targeting a scratchpad site (those must be probed row by row).
     * The hardware compares a whole access's wordline IDs in
     * parallel; this is that check, with no side effects.
     */
    bool rangeAllowed(World world, std::uint32_t first,
                      std::uint32_t count, bool is_write) const;

    /**
     * Perform the @p count data-free row accesses rangeAllowed()
     * approved, with exactly the effects of @p count read(…, nullptr)
     * / write(…, nullptr) calls: access, ID-flip and fault-occurrence
     * counts, ID transitions (including a secure global read claiming
     * its lines) and the write record.
     */
    void commitRange(World world, std::uint32_t first,
                     std::uint32_t count, bool is_write);

    /**
     * Secure instruction: reset rows [first, first+count) from secure
     * to non-secure, zeroing their contents. Rejected unless issued
     * from the secure context.
     */
    bool secureReset(std::uint32_t first, std::uint32_t count,
                     bool from_secure);

    /** Reconfigure the isolation mode (experiment setup only). */
    void setMode(IsolationMode mode, std::uint32_t partition_boundary = 0);

    World idState(std::uint32_t row) const;
    std::uint32_t rows() const { return params.rows; }
    std::uint32_t rowBytes() const { return params.row_bytes; }
    SpadScope scope() const { return params.scope; }
    IsolationMode mode() const { return params.mode; }

    /**
     * Rows usable by @p w under the current mode (drives the tiling
     * compiler's view of available capacity).
     */
    std::uint32_t usableRows(World w) const;

    std::uint64_t violations() const
    {
        return static_cast<std::uint64_t>(denied.value());
    }

    /**
     * Raw, check-free access for the flush engine and loaders that
     * operate with hardware privilege. The first call allocates the
     * (zeroed) data array, as do a write that carries data and an
     * injected bit flip; until then reads return zeros, so a
     * timing-only pad never holds its payload bytes. Rows are
     * contiguous: rawRow(r) + rowBytes() == rawRow(r + 1).
     */
    std::uint8_t *rawRow(std::uint32_t row);

    /** Whether the data array has been allocated yet. */
    bool holdsData() const { return !data.empty(); }

    /** Set rows [first, first+count) to ID @p w, check-free. */
    void setIdRange(std::uint32_t first, std::uint32_t count, World w);

    /** The whole per-row ID image (layer-timing cache key input). */
    const std::vector<World> &idImage() const { return id_state; }

    /** A recorded run of rows left holding the same wordline ID. */
    struct WrittenRange
    {
        std::uint32_t first = 0;
        std::uint32_t count = 0;
        World world = World::normal;
    };

    /**
     * Arm written-row recording: every row an access or scrub
     * touches from here to endWriteRecord() is remembered (one
     * branch per access while armed, nothing when disarmed). The
     * layer-timing cache uses this to capture the ID-image effect of
     * a memoized op so a hit can replay it with setIdRange().
     */
    void beginWriteRecord();

    /**
     * Compact the recorded rows into ranges annotated with each
     * row's final ID, append them to @p out, and disarm.
     */
    void endWriteRecord(std::vector<WrittenRange> &out);

    /**
     * Arm (or disarm with nullptr) the fault injector. Armed sites:
     * spad_id_mismatch (a read is denied as if the wordline ID did
     * not match) and spad_bit_flip (one bit of the stored row is
     * flipped before the read copies it out — silent corruption).
     * The scratchpad has no timebase, so both probe with tick 0.
     */
    void armFaults(FaultInjector *inj) { faults = inj; }

    /** Bits flipped by injected spad_bit_flip faults. */
    std::uint64_t corruptions() const
    {
        return static_cast<std::uint64_t>(corrupted.value());
    }

    /**
     * Attach (or detach with nullptr) a trace sink, emitting as
     * @p who. Denials and scrubs trace under TraceCategory::spad,
     * injected faults under TraceCategory::fault; the per-access
     * happy path is not traced (it would swamp any sink). The
     * scratchpad has no timebase, so records carry tick 0.
     */
    void attachTrace(TraceSink *sink, const std::string &who);

  private:
    bool partitionAllows(World w, std::uint32_t row) const;
    bool rowsInRange(std::uint32_t first, std::uint32_t count) const;
    std::uint8_t *ensureData();
    void recordWrite(std::uint32_t row)
    {
        if (recording && !write_mark[row]) {
            write_mark[row] = 1;
            written_rows.push_back(row);
        }
    }
    void recordRange(std::uint32_t first, std::uint32_t count)
    {
        if (recording) {
            for (std::uint32_t row = first; row < first + count; ++row)
                recordWrite(row);
        }
    }

    SpadParams params;
    std::vector<std::uint8_t> data;   // rows * row_bytes, or empty
    std::vector<World> id_state;      // per row
    bool recording = false;
    std::vector<std::uint8_t> write_mark; // lazily sized to rows
    std::vector<std::uint32_t> written_rows;
    FaultInjector *faults = nullptr;
    Tracer tracer;
    std::string trace_name;

    stats::Scalar reads;
    stats::Scalar writes;
    stats::Scalar denied;
    stats::Scalar id_flips;
    stats::Scalar corrupted;
};

} // namespace snpu

#endif // SNPU_SPAD_SCRATCHPAD_HH
