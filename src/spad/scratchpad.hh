/**
 * @file
 * NPU scratchpad with the sNPU Isolator's ID-based wordline isolation
 * (§IV-B). The scratchpad is index-addressed SRAM with no relation to
 * system memory; every wordline carries a security ID next to its
 * (large) data payload. The ID is a domain tag (§VII "Multiple Secure
 * Domains"): tag 0 is the normal world, tag 1 the paper's secure
 * world, and tags 2..N-1 further, mutually isolated secure domains
 * (N = SpadParams::domains, two by default), for log2(N) tag bits per
 * wordline.
 *
 * Access rules under IsolationMode::id_based, for an access by
 * domain d:
 *  - local (exclusive) scratchpad: reads require the line's tag to
 *    be d; writes are always allowed and overwrite the tag with d
 *    (forced write);
 *  - global (shared) scratchpad: an access is denied if the line
 *    holds a tag other than 0 and d; a secure domain's access claims
 *    an untagged (tag 0) line. A dedicated secure instruction resets
 *    lines back to the normal world.
 *  - in every mode, a tag of N or more is denied.
 * With two domains these are the paper's rules exactly.
 *
 * Alternative modes model the paper's strawmen: a static partition
 * (Fig 6a / Fig 15) and no protection at all (the LeftoverLocals
 * victim, Fig 5).
 */

#ifndef SNPU_SPAD_SCRATCHPAD_HH
#define SNPU_SPAD_SCRATCHPAD_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/fault_injector.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace snpu
{

/**
 * A wordline's domain tag, one byte per row. A World converts to its
 * tag implicitly, so two-world callers pass World.
 */
struct DomainId
{
    std::uint8_t tag = 0;

    constexpr DomainId() = default;
    constexpr DomainId(World w) : tag(static_cast<std::uint8_t>(w)) {}
    constexpr explicit DomainId(std::uint8_t t) : tag(t) {}

    friend constexpr bool operator==(DomainId, DomainId) = default;
};

/** Tag bits per wordline for @p domains domains: log2(domains). */
constexpr std::uint32_t
spadTagBits(std::uint32_t domains)
{
    std::uint32_t bits = 0;
    for (std::uint32_t d = domains; d > 1; d >>= 1)
        ++bits;
    return bits;
}

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
    /** Hardware domains the tags name (a power of two, >= 2). */
    std::uint32_t domains = 2;
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
    SpadStatus read(DomainId reader, std::uint32_t row,
                    std::uint8_t *dst);

    /** Write one row from @p src (row_bytes long, may be null). */
    SpadStatus write(DomainId writer, std::uint32_t row,
                     const std::uint8_t *src);

    /**
     * Whether the isolation rule lets @p domain read (or write) all
     * @p count rows from @p first: every row in range, none denied.
     * The hardware compares a whole access's wordline IDs in
     * parallel; this is that check, with no side effects and no
     * fault probe, so a read range also needs !probesReads() before
     * commitRange() may stand in for its per-row reads. Forced inline
     * (GCC otherwise keeps it out of line), mostly called with a
     * constant @p is_write.
     */
    [[gnu::always_inline]] bool
    ruleAllows(DomainId domain, std::uint32_t first, std::uint32_t count,
               bool is_write) const
    {
        if (!rowsInRange(first, count))
            return false;
        if (count == 0)
            return true;
        if (!validDomain(domain))
            return false;

        const DomainId *ids = id_state.data() + first;
        switch (params.mode) {
          case IsolationMode::none:
            return true;
          case IsolationMode::partition:
            // Each world owns one contiguous side of the boundary.
            return partitionAllows(domain, first) &&
                   partitionAllows(domain, first + count - 1);
          case IsolationMode::id_based:
            if (params.scope == SpadScope::local) {
                // Forced writes always pass; reads need every ID to
                // match.
                return is_write || countOther(ids, count, domain) == 0;
            }
            // Global: denied by any line in range holding another
            // domain's tag.
            return std::none_of(ids, ids + count, [domain](DomainId t) {
                return t != World::normal && t != domain;
            });
        }
        return false;
    }

    /**
     * One data-free read of @p row on a local pad that ruleAllows()
     * already approved, under a read-probing fault plan: counted and
     * probed exactly as read() counts and probes it, with no ID
     * check. False if an injected ID mismatch denies it.
     */
    bool
    probeRead(std::uint32_t row)
    {
        ++reads;
        return !faults || probeFaults(row);
    }

    /**
     * Perform the @p count data-free row accesses ruleAllows()
     * approved (reads only while !probesReads()), with exactly the
     * effects of @p count read(…, nullptr) / write(…, nullptr) calls:
     * access, ID-flip and fault-occurrence counts, ID transitions
     * (including a secure domain's global read claiming its lines)
     * and the write record. Forced inline, as ruleAllows() is.
     */
    [[gnu::always_inline]] void
    commitRange(DomainId domain, std::uint32_t first, std::uint32_t count,
                bool is_write)
    {
        if (is_write) {
            countAccesses(0, count);
            claimRows(domain, first, count);
            return;
        }
        countAccesses(count, 0);

        // Under the global rule an approved secure-domain read claims
        // its untagged lines; no other read moves an ID.
        if (params.mode == IsolationMode::id_based &&
            params.scope == SpadScope::global && domain != World::normal) {
            DomainId *ids = id_state.data() + first;
            const std::size_t flips = countOther(ids, count, domain);
            if (flips > 0) {
                id_flips += static_cast<double>(flips);
                for (std::uint32_t row = first;
                     recording && row < first + count; ++row) {
                    if (id_state[row] != domain)
                        recordWrite(row);
                }
                fillTags(ids, count, domain);
                id_fp_valid = false;
            }
        }
    }

    /**
     * Count @p reads row reads and @p writes row writes as that many
     * approved data-free read()/write() calls count them (access and
     * fault-occurrence counts), without their ID effects. A read
     * cannot be counted this way while read probes are armed.
     */
    [[gnu::always_inline]] void
    countAccesses(std::uint64_t reads_n, std::uint64_t writes_n)
    {
        reads += static_cast<double>(reads_n);
        writes += static_cast<double>(writes_n);
        if (faults && reads_n) {
            faults->skip(FaultSite::spad_id_mismatch, reads_n);
            faults->skip(FaultSite::spad_bit_flip, reads_n);
        }
    }

    /**
     * The ID effect of approved writes by @p domain to rows [first,
     * first + count), however many times each row was written: a
     * local write forces the writer's tag, a secure domain's global
     * write claims the line, and every row joins the write record. A
     * range that already holds @p domain's tag leaves the image (and
     * its fingerprint) as it was.
     */
    [[gnu::always_inline]] void
    claimRows(DomainId domain, std::uint32_t first, std::uint32_t count)
    {
        if (params.mode == IsolationMode::id_based &&
            (params.scope == SpadScope::local || domain != World::normal)) {
            DomainId *ids = id_state.data() + first;
            const std::size_t flips = countOther(ids, count, domain);
            if (flips > 0) {
                id_flips += static_cast<double>(flips);
                fillTags(ids, count, domain);
                id_fp_valid = false;
            }
        }
        recordRange(first, count);
    }

    /**
     * Whether the armed fault plan probes every row read (it targets
     * spad_id_mismatch or spad_bit_flip), so reads must go row by
     * row through read().
     */
    bool probesReads() const { return read_probes; }

    /**
     * Secure instruction: reset rows [first, first+count) from any
     * secure domain to the normal world, zeroing their contents.
     * Rejected unless issued from the secure context.
     */
    bool secureReset(std::uint32_t first, std::uint32_t count,
                     bool from_secure);

    /**
     * Privileged reset of one secure domain: every row tagged
     * @p domain returns to the normal world, its contents zeroed.
     * Rejected (and counted as denied) unless @p from_secure; false,
     * with nothing changed, for the normal world or a tag outside
     * the domain count.
     */
    bool resetDomain(DomainId domain, bool from_secure);

    /** Reconfigure the isolation mode (experiment setup only). */
    void setMode(IsolationMode mode, std::uint32_t partition_boundary = 0);

    /**
     * Fingerprint of the isolation configuration (mode, geometry and
     * the rows usable by the secure world), a layer-timing cache key
     * input. The constructor and setMode(), the only writers of that
     * configuration, recompute it, so reading it is one load.
     */
    std::uint64_t configFingerprint() const { return config_fp; }

    DomainId idState(std::uint32_t row) const;
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

    /** Set rows [first, first+count) to tag @p d, check-free. */
    void setIdRange(std::uint32_t first, std::uint32_t count, DomainId d);

    /** The whole per-row ID image. */
    const std::vector<DomainId> &idImage() const { return id_state; }

    /**
     * hashBytesFast over idImage() (the layer-timing cache key
     * input), memoized: the full hash runs on the first call after
     * the image changed and every later call is one load. Every
     * writer of the image clears the memo.
     */
    std::uint64_t idFingerprint() const;

    /**
     * Install @p fp as the fingerprint of the current ID image
     * without hashing it. For a caller that knows the image's hash
     * by construction: a timing-cache hit, after replaying its ID
     * ranges, installs the post-op fingerprint its entry recorded.
     */
    void installIdFingerprint(std::uint64_t fp)
    {
        id_fp = fp;
        id_fp_valid = true;
    }

    /** A recorded run of rows left holding the same wordline ID. */
    struct WrittenRange
    {
        std::uint32_t first = 0;
        std::uint32_t count = 0;
        DomainId tag;
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
    void
    armFaults(FaultInjector *inj)
    {
        faults = inj;
        read_probes = inj && (inj->targets(FaultSite::spad_id_mismatch) ||
                              inj->targets(FaultSite::spad_bit_flip));
    }

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
    /**
     * How many of the @p n IDs at @p ids are not @p w, eight per
     * step: a stretch commit counts every row it wrote, and GCC does
     * not vectorize the byte loop of std::count at -O2.
     */
    static std::size_t
    countOther(const DomainId *ids, std::size_t n, DomainId w)
    {
        static_assert(sizeof(DomainId) == 1);
        constexpr std::uint64_t low7 = 0x7f7f7f7f7f7f7f7full;
        constexpr std::uint64_t ones = 0x0101010101010101ull;
        const std::uint64_t pattern = ones * w.tag;
        std::size_t other = 0;
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            std::uint64_t x;
            std::memcpy(&x, ids + i, 8);
            x ^= pattern;
            // Bit 7 of each byte is set iff that byte of x is nonzero;
            // the multiply sums the eight bits into the top byte.
            const std::uint64_t nonzero =
                (((x & low7) + low7) | x) & ~low7;
            other += ((nonzero >> 7) * ones) >> 56;
        }
        for (; i < n; ++i)
            other += ids[i] != w;
        return other;
    }

    /**
     * Set the @p n tags at @p ids to @p d with one memset: GCC leaves
     * std::fill of a one-byte class type as a byte loop.
     */
    static void
    fillTags(DomainId *ids, std::size_t n, DomainId d)
    {
        std::memset(static_cast<void *>(ids), d.tag, n);
    }

    bool
    partitionAllows(DomainId d, std::uint32_t row) const
    {
        // Secure domains own [0, boundary); normal world the rest.
        if (d != World::normal)
            return row < params.partition_boundary;
        return row >= params.partition_boundary;
    }
    bool validDomain(DomainId d) const { return d.tag < params.domains; }
    bool
    rowsInRange(std::uint32_t first, std::uint32_t count) const
    {
        return first <= params.rows && count <= params.rows - first;
    }
    void updateConfigFingerprint();
    std::uint8_t *ensureData();
    /**
     * The fault probes of one read of @p row: false if an injected
     * ID mismatch denies it; an injected bit flip corrupts the row.
     */
    bool probeFaults(std::uint32_t row);
    /**
     * Deny one @p access ("read" or "write") of @p row by @p who
     * whose tag check failed: count it and trace why.
     */
    SpadStatus denyTag(const char *access, std::uint32_t row,
                       DomainId who);
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
    std::vector<DomainId> id_state;   // per row
    std::uint64_t config_fp = 0;      // configFingerprint()
    mutable std::uint64_t id_fp = 0;  // idFingerprint() memo
    mutable bool id_fp_valid = false;
    bool recording = false;
    std::vector<std::uint8_t> write_mark; // lazily sized to rows
    std::vector<std::uint32_t> written_rows;
    FaultInjector *faults = nullptr;
    /**
     * The armed plan targets a read-probed site (spad_id_mismatch or
     * spad_bit_flip), so every read must probe row by row. Set once
     * by armFaults(): a plan's targets never change.
     */
    bool read_probes = false;
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
