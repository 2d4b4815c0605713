#include "noc/software_noc.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"

namespace snpu
{

SoftwareNoc::SoftwareNoc(stats::Group &stats, MemSystem &mem,
                         AddrRange buffer)
    : mem(mem), buffer(buffer),
      transfers(stats, "swnoc_transfers", "shared-memory transfers"),
      bytes_moved(stats, "swnoc_bytes", "bytes moved via shared memory"),
      denied(stats, "swnoc_denied", "transfers denied by checks")
{
}

NocResult
SoftwareNoc::transfer(Tick when, Scratchpad &src, Scratchpad &dst,
                      std::uint32_t src_row, std::uint32_t dst_row,
                      std::uint32_t nrows, World world)
{
    ++transfers;

    const std::uint32_t row_bytes = src.rowBytes();
    const std::uint32_t total = nrows * row_bytes;
    if (total > buffer.size) {
        fatal("software NoC buffer too small for transfer");
    }

    // The buffer's memory accesses add to one tally, added to the
    // stats once on every way out.
    MemTally tally;
    const auto deny = [&](Tick at) {
        mem.commit(tally);
        ++denied;
        return NocResult{at, false};
    };

    // Phase 1: source streams its rows to the shared buffer.
    std::vector<std::uint8_t> row(row_bytes);
    Tick t = when;
    Tick done = when;
    for (std::uint32_t i = 0; i < nrows; ++i) {
        if (src.read(world, src_row + i, row.data()) != SpadStatus::ok)
            return deny(t);
        MemRequest store{buffer.base + static_cast<Addr>(i) * row_bytes,
                         row_bytes, MemOp::write, world};
        MemResult res = mem.access(t, store, tally);
        if (!res.ok)
            return deny(t);
        mem.data().write(store.paddr, row.data(), row_bytes);
        done = std::max(done, res.done);
        t += 1;
    }

    // The destination cannot start loading before the store stream
    // has fully landed (a software flag/fence orders the two phases).
    t = std::max(done, t);

    // Phase 2: destination loads the rows back.
    for (std::uint32_t i = 0; i < nrows; ++i) {
        MemRequest load{buffer.base + static_cast<Addr>(i) * row_bytes,
                        row_bytes, MemOp::read, world};
        MemResult res = mem.access(t, load, tally);
        if (!res.ok)
            return deny(t);
        mem.data().read(load.paddr, row.data(), row_bytes);
        if (dst.write(world, dst_row + i, row.data()) != SpadStatus::ok)
            return deny(t);
        done = std::max(done, res.done);
        t += 1;
    }

    mem.commit(tally);
    bytes_moved += total;
    return NocResult{std::max(done, t)};
}

} // namespace snpu
