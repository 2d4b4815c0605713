#include "spad/flush_engine.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace snpu
{

const char *
flushGranularityName(FlushGranularity g)
{
    switch (g) {
      case FlushGranularity::none:
        return "none";
      case FlushGranularity::tile:
        return "tile";
      case FlushGranularity::layer:
        return "layer";
      case FlushGranularity::layer5:
        return "layer5";
    }
    return "?";
}

FlushEngine::FlushEngine(stats::Group &stats, MemSystem &mem,
                         Scratchpad &spad)
    : mem(mem), spad(spad),
      flush_count(stats, "flush_count", "scratchpad context saves"),
      restore_count(stats, "restore_count", "scratchpad context restores"),
      bytes_moved(stats, "flush_bytes", "bytes moved by flush traffic")
{
}

Tick
FlushEngine::stream(Tick when, std::uint32_t rows, Addr area, MemOp op,
                    World world)
{
    // One packet per row, issued one per cycle; the rows are
    // contiguous in both the scratchpad and the save area.
    const std::uint32_t row_bytes = spad.rowBytes();
    const std::size_t bytes = static_cast<std::size_t>(rows) * row_bytes;
    MemTally tally;
    Tick t = when;
    Tick done = when;
    for (std::uint32_t row = 0; row < rows; ++row) {
        const MemResult res = mem.access(
            t, MemRequest{area + static_cast<Addr>(row) * row_bytes,
                          row_bytes, op, world},
            tally);
        if (!res.ok) {
            mem.commit(tally);
            fatal("flush engine denied by the world partition");
        }
        done = std::max(done, res.done);
        t += packet_issue_interval;
    }
    mem.commit(tally);

    // Functional movement of the context bytes.
    if (rows > 0 && op == MemOp::write)
        mem.data().write(area, spad.rawRow(0), bytes);
    else if (rows > 0)
        mem.data().read(area, spad.rawRow(0), bytes);
    bytes_moved += bytes;
    return std::max(done, t);
}

Tick
FlushEngine::flush(Tick when, std::uint32_t live_rows, Addr save_area,
                   World world)
{
    live_rows = std::min(live_rows, spad.rows());
    ++flush_count;
    Tick done = stream(when, live_rows, save_area, MemOp::write, world);
    // Scrub the saved rows so nothing leaks to the next task. An
    // unallocated data array holds only zeros already.
    if (spad.holdsData()) {
        std::memset(spad.rawRow(0), 0,
                    static_cast<std::size_t>(live_rows) * spad.rowBytes());
    }
    spad.setIdRange(0, live_rows, World::normal);
    return done;
}

Tick
FlushEngine::restore(Tick when, std::uint32_t live_rows, Addr save_area,
                     World world)
{
    live_rows = std::min(live_rows, spad.rows());
    ++restore_count;
    return stream(when, live_rows, save_area, MemOp::read, world);
}

void
FlushEngine::restoreFunctional(std::uint32_t live_rows, Addr save_area)
{
    live_rows = std::min(live_rows, spad.rows());
    ++restore_count;
    if (live_rows > 0) {
        mem.data().read(save_area, spad.rawRow(0),
                        static_cast<std::size_t>(live_rows) *
                            spad.rowBytes());
    }
}

} // namespace snpu
