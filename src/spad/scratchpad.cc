#include "spad/scratchpad.hh"

#include <algorithm>
#include <cstring>

#include "sim/hashing.hh"
#include "sim/logging.hh"

namespace snpu
{

Scratchpad::Scratchpad(stats::Group &stats, SpadParams params)
    : params(params),
      id_state(params.rows), // all World::normal
      reads(stats, "spad_reads", "scratchpad row reads"),
      writes(stats, "spad_writes", "scratchpad row writes"),
      denied(stats, "spad_denied", "scratchpad accesses denied"),
      id_flips(stats, "spad_id_flips", "wordline ID state transitions"),
      corrupted(stats, "spad_corruptions",
                "bits flipped by injected wordline faults")
{
    if (params.rows == 0 || params.row_bytes == 0)
        fatal("scratchpad needs nonzero geometry");
    if (params.partition_boundary > params.rows)
        fatal("partition boundary beyond scratchpad");
    // The tag is one byte: at most 256 domains.
    if (params.domains < 2 || params.domains > 256 ||
        (params.domains & (params.domains - 1)) != 0) {
        fatal("domain count must be a power of two in [2, 256], not ",
              params.domains);
    }
    updateConfigFingerprint();
}

void
Scratchpad::attachTrace(TraceSink *sink, const std::string &who)
{
    if (sink) {
        trace_name = who;
        tracer.attach(sink);
    } else {
        tracer.detach();
    }
}

std::uint8_t *
Scratchpad::ensureData()
{
    if (data.empty())
        data.assign(static_cast<std::size_t>(params.rows) * params.row_bytes,
                    0);
    return data.data();
}

bool
Scratchpad::probeFaults(std::uint32_t row)
{
    if (faults->shouldInject(FaultSite::spad_id_mismatch, 0)) {
        // The wordline's ID bit misreads, so the comparator denies
        // the access regardless of the real owner.
        ++denied;
        tracer.emit(0, TraceCategory::fault, trace_name,
                    "injected ID mismatch: read of row ", row, " denied");
        return false;
    }
    if (faults->shouldInject(FaultSite::spad_bit_flip, 0)) {
        // Flip the low bit of the row's first byte in place: the
        // corruption persists and is silent to the reader.
        ensureData()[std::size_t{row} * params.row_bytes] ^= 1;
        ++corrupted;
        tracer.emit(0, TraceCategory::fault, trace_name,
                    "injected bit flip in row ", row);
    }
    return true;
}

SpadStatus
Scratchpad::denyTag(const char *access, std::uint32_t row, DomainId who)
{
    ++denied;
    if (!validDomain(who)) {
        tracer.emit(0, TraceCategory::spad, trace_name, access,
                    " of row ", row, " denied: domain tag ",
                    int(who.tag), " out of range");
    } else if (who == World::normal) {
        tracer.emit(0, TraceCategory::spad, trace_name, access,
                    " of secure row ", row, " denied to normal world");
    } else {
        tracer.emit(0, TraceCategory::spad, trace_name, access,
                    " of row ", row, " denied to domain ", int(who.tag),
                    ": tagged for domain ", int(id_state[row].tag));
    }
    return SpadStatus::security_violation;
}

SpadStatus
Scratchpad::read(DomainId reader, std::uint32_t row, std::uint8_t *dst)
{
    if (row >= params.rows)
        return SpadStatus::bad_index;
    ++reads;

    if (faults && !probeFaults(row))
        return SpadStatus::security_violation;
    if (!validDomain(reader))
        return denyTag("read", row, reader);

    switch (params.mode) {
      case IsolationMode::none:
        break;
      case IsolationMode::partition:
        if (!partitionAllows(reader, row)) {
            ++denied;
            tracer.emit(0, TraceCategory::spad, trace_name,
                        "read of row ", row,
                        " denied: partition boundary");
            return SpadStatus::security_violation;
        }
        break;
      case IsolationMode::id_based:
        if (params.scope == SpadScope::local) {
            // Local rule: read requires ID match.
            if (id_state[row] != reader) {
                ++denied;
                tracer.emit(0, TraceCategory::spad, trace_name,
                            "read of row ", row,
                            " denied: wordline ID mismatch");
                return SpadStatus::security_violation;
            }
        } else {
            // Global rule: no domain may touch another's lines; a
            // secure domain's read claims an untagged line.
            if (id_state[row] != World::normal && id_state[row] != reader)
                return denyTag("read", row, reader);
            if (id_state[row] != reader) {
                id_state[row] = reader;
                id_fp_valid = false;
                ++id_flips;
                recordWrite(row); // secure read claims the line
            }
        }
        break;
    }

    if (dst && data.empty()) {
        std::memset(dst, 0, params.row_bytes);
    } else if (dst) {
        std::memcpy(dst,
                    data.data() +
                        static_cast<std::size_t>(row) * params.row_bytes,
                    params.row_bytes);
    }
    return SpadStatus::ok;
}

SpadStatus
Scratchpad::write(DomainId writer, std::uint32_t row,
                  const std::uint8_t *src)
{
    if (row >= params.rows)
        return SpadStatus::bad_index;
    ++writes;
    if (!validDomain(writer))
        return denyTag("write", row, writer);

    switch (params.mode) {
      case IsolationMode::none:
        break;
      case IsolationMode::partition:
        if (!partitionAllows(writer, row)) {
            ++denied;
            tracer.emit(0, TraceCategory::spad, trace_name,
                        "write of row ", row,
                        " denied: partition boundary");
            return SpadStatus::security_violation;
        }
        break;
      case IsolationMode::id_based:
        if (params.scope == SpadScope::local) {
            // Local rule: forced write — always allowed, flips ID.
            if (id_state[row] != writer) {
                id_state[row] = writer;
                id_fp_valid = false;
                ++id_flips;
            }
        } else {
            if (id_state[row] != World::normal && id_state[row] != writer)
                return denyTag("write", row, writer);
            if (id_state[row] != writer) {
                id_state[row] = writer;
                id_fp_valid = false;
                ++id_flips;
            }
        }
        break;
    }

    recordWrite(row);
    if (src) {
        std::memcpy(ensureData() +
                        static_cast<std::size_t>(row) * params.row_bytes,
                    src, params.row_bytes);
    }
    return SpadStatus::ok;
}

bool
Scratchpad::secureReset(std::uint32_t first, std::uint32_t count,
                        bool from_secure)
{
    if (!from_secure) {
        ++denied;
        tracer.emit(0, TraceCategory::spad, trace_name,
                    "secure reset denied: not issued from secure "
                    "context");
        return false;
    }
    if (!rowsInRange(first, count))
        return false;
    tracer.emit(0, TraceCategory::spad, trace_name,
                "secure reset: scrubbed rows [", first, ", ",
                first + count, ")");
    recordRange(first, count);
    DomainId *ids = id_state.data() + first;
    id_flips += static_cast<double>(countOther(ids, count, World::normal));
    fillTags(ids, count, World::normal);
    id_fp_valid = false;
    // Resetting also scrubs the payload: the secret must not survive
    // the ownership change. An unallocated array holds only zeros.
    if (holdsData()) {
        std::memset(data.data() +
                        static_cast<std::size_t>(first) * params.row_bytes,
                    0, static_cast<std::size_t>(count) * params.row_bytes);
    }
    return true;
}

bool
Scratchpad::resetDomain(DomainId domain, bool from_secure)
{
    if (!from_secure) {
        ++denied;
        tracer.emit(0, TraceCategory::spad, trace_name,
                    "domain reset denied: not issued from secure "
                    "context");
        return false;
    }
    if (!validDomain(domain) || domain == World::normal)
        return false;
    tracer.emit(0, TraceCategory::spad, trace_name,
                "domain reset: scrubbed the rows of domain ",
                int(domain.tag));
    for (std::uint32_t row = 0; row < params.rows; ++row) {
        if (id_state[row] != domain)
            continue;
        id_state[row] = World::normal;
        id_fp_valid = false;
        ++id_flips;
        recordWrite(row);
        if (holdsData()) {
            std::memset(data.data() +
                            static_cast<std::size_t>(row) * params.row_bytes,
                        0, params.row_bytes);
        }
    }
    return true;
}

void
Scratchpad::setMode(IsolationMode mode, std::uint32_t partition_boundary)
{
    if (partition_boundary > params.rows)
        fatal("partition boundary beyond scratchpad");
    params.mode = mode;
    params.partition_boundary = partition_boundary;
    updateConfigFingerprint();
}

void
Scratchpad::updateConfigFingerprint()
{
    std::uint64_t h = fnv_offset;
    h = hashMix(h, std::uint64_t(params.mode));
    h = hashMix(h, std::uint64_t(params.rows));
    h = hashMix(h, std::uint64_t(params.row_bytes));
    // Under partition mode this is the live boundary; otherwise it
    // degenerates to rows and stays a pure function of the above.
    h = hashMix(h, std::uint64_t(usableRows(World::secure)));
    // The domain count is left out: a World's access does the same at
    // any count, and a tag of 2 or more shows in the ID image.
    config_fp = h;
}

DomainId
Scratchpad::idState(std::uint32_t row) const
{
    if (row >= params.rows)
        panic("idState: row out of range");
    return id_state[row];
}

std::uint32_t
Scratchpad::usableRows(World w) const
{
    if (params.mode != IsolationMode::partition)
        return params.rows;
    return w == World::secure ? params.partition_boundary
                              : params.rows - params.partition_boundary;
}

std::uint8_t *
Scratchpad::rawRow(std::uint32_t row)
{
    if (row >= params.rows)
        panic("rawRow: row out of range");
    return ensureData() + static_cast<std::size_t>(row) * params.row_bytes;
}

void
Scratchpad::setIdRange(std::uint32_t first, std::uint32_t count,
                       DomainId d)
{
    if (!rowsInRange(first, count))
        panic("setIdRange: rows out of range");
    fillTags(id_state.data() + first, count, d);
    id_fp_valid = false;
    recordRange(first, count);
}

std::uint64_t
Scratchpad::idFingerprint() const
{
    if (!id_fp_valid) {
        id_fp = hashBytesFast(id_state.data(),
                              id_state.size() * sizeof(DomainId));
        id_fp_valid = true;
    }
    return id_fp;
}

void
Scratchpad::beginWriteRecord()
{
    if (write_mark.size() != params.rows)
        write_mark.assign(params.rows, 0);
    recording = true;
    written_rows.clear();
}

void
Scratchpad::endWriteRecord(std::vector<WrittenRange> &out)
{
    recording = false;
    std::sort(written_rows.begin(), written_rows.end());
    for (std::size_t i = 0; i < written_rows.size();) {
        const std::uint32_t row = written_rows[i];
        const DomainId w = id_state[row];
        std::uint32_t count = 1;
        while (i + count < written_rows.size() &&
               written_rows[i + count] == row + count &&
               id_state[row + count] == w) {
            ++count;
        }
        out.push_back(WrittenRange{row, count, w});
        i += count;
    }
    for (const std::uint32_t row : written_rows)
        write_mark[row] = 0;
    written_rows.clear();
}

} // namespace snpu
