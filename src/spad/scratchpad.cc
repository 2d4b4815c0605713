#include "spad/scratchpad.hh"

#include <algorithm>
#include <cstring>

#include "sim/hashing.hh"
#include "sim/logging.hh"

namespace snpu
{

Scratchpad::Scratchpad(stats::Group &stats, SpadParams params)
    : params(params),
      id_state(params.rows, World::normal),
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

bool
Scratchpad::partitionAllows(World w, std::uint32_t row) const
{
    // Secure world owns [0, boundary); normal world the rest.
    if (w == World::secure)
        return row < params.partition_boundary;
    return row >= params.partition_boundary;
}

bool
Scratchpad::rowsInRange(std::uint32_t first, std::uint32_t count) const
{
    return first <= params.rows && count <= params.rows - first;
}

std::uint8_t *
Scratchpad::ensureData()
{
    if (data.empty())
        data.assign(static_cast<std::size_t>(params.rows) * params.row_bytes,
                    0);
    return data.data();
}

SpadStatus
Scratchpad::read(World reader, std::uint32_t row, std::uint8_t *dst)
{
    if (row >= params.rows)
        return SpadStatus::bad_index;
    ++reads;

    if (faults) {
        if (faults->shouldInject(FaultSite::spad_id_mismatch, 0)) {
            // The wordline's ID bit misreads, so the comparator
            // denies the access regardless of the real owner.
            ++denied;
            tracer.emit(0, TraceCategory::fault, trace_name,
                        "injected ID mismatch: read of row ", row,
                        " denied");
            return SpadStatus::security_violation;
        }
        if (faults->shouldInject(FaultSite::spad_bit_flip, 0)) {
            // Flip the low bit of the row's first byte in place:
            // the corruption persists and is silent to the reader.
            ensureData()[std::size_t{row} * params.row_bytes] ^= 1;
            ++corrupted;
            tracer.emit(0, TraceCategory::fault, trace_name,
                        "injected bit flip in row ", row);
        }
    }

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
            // Global rule: non-secure may not touch secure lines;
            // a secure read claims the line.
            if (id_state[row] == World::secure &&
                reader != World::secure) {
                ++denied;
                tracer.emit(0, TraceCategory::spad, trace_name,
                            "read of secure row ", row,
                            " denied to normal world");
                return SpadStatus::security_violation;
            }
            if (reader == World::secure &&
                id_state[row] != World::secure) {
                id_state[row] = World::secure;
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
Scratchpad::write(World writer, std::uint32_t row, const std::uint8_t *src)
{
    if (row >= params.rows)
        return SpadStatus::bad_index;
    ++writes;

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
            if (id_state[row] == World::secure &&
                writer != World::secure) {
                ++denied;
                tracer.emit(0, TraceCategory::spad, trace_name,
                            "write of secure row ", row,
                            " denied to normal world");
                return SpadStatus::security_violation;
            }
            if (writer == World::secure &&
                id_state[row] != World::secure) {
                id_state[row] = World::secure;
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
Scratchpad::rangeAllowed(World world, std::uint32_t first,
                         std::uint32_t count, bool is_write) const
{
    if (!rowsInRange(first, count))
        return false;
    if (!is_write && faults &&
        (faults->targets(FaultSite::spad_id_mismatch) ||
         faults->targets(FaultSite::spad_bit_flip))) {
        return false;
    }
    if (count == 0)
        return true;

    const auto ids = id_state.begin() + first;
    switch (params.mode) {
      case IsolationMode::none:
        return true;
      case IsolationMode::partition:
        // Each world owns one contiguous side of the boundary.
        return partitionAllows(world, first) &&
               partitionAllows(world, first + count - 1);
      case IsolationMode::id_based:
        if (params.scope == SpadScope::local) {
            // Forced writes always pass; reads need every ID to match.
            return is_write ||
                   std::all_of(ids, ids + count,
                               [world](World w) { return w == world; });
        }
        // Global: only a normal-world access is ever denied, by any
        // secure line in range.
        return world == World::secure ||
               std::find(ids, ids + count, World::secure) == ids + count;
    }
    return false;
}

void
Scratchpad::commitRange(World world, std::uint32_t first,
                        std::uint32_t count, bool is_write)
{
    if (is_write) {
        writes += count;
    } else {
        reads += count;
        if (faults) {
            faults->skip(FaultSite::spad_id_mismatch, count);
            faults->skip(FaultSite::spad_bit_flip, count);
        }
    }

    // Local writes force the writer's ID; under the global rule any
    // approved secure access claims its lines. Nothing else moves IDs.
    const bool local = params.scope == SpadScope::local;
    if (params.mode == IsolationMode::id_based &&
        (local ? is_write : world == World::secure)) {
        const auto ids = id_state.begin() + first;
        id_flips += count - std::count(ids, ids + count, world);
        if (!is_write && recording) {
            for (std::uint32_t row = first; row < first + count; ++row) {
                if (id_state[row] != world)
                    recordWrite(row); // secure read claims the line
            }
        }
        std::fill(ids, ids + count, world);
        id_fp_valid = false;
    }
    if (is_write)
        recordRange(first, count);
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
    const auto ids = id_state.begin() + first;
    id_flips += std::count(ids, ids + count, World::secure);
    std::fill(ids, ids + count, World::normal);
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
    config_fp = h;
}

World
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
Scratchpad::setIdRange(std::uint32_t first, std::uint32_t count, World w)
{
    if (!rowsInRange(first, count))
        panic("setIdRange: rows out of range");
    std::fill_n(id_state.begin() + first, count, w);
    id_fp_valid = false;
    recordRange(first, count);
}

std::uint64_t
Scratchpad::idFingerprint() const
{
    if (!id_fp_valid) {
        id_fp = hashBytesFast(id_state.data(),
                              id_state.size() * sizeof(World));
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
        const World w = id_state[row];
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
