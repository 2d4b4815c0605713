#include "mem/dram_model.hh"

#include "sim/logging.hh"

namespace snpu
{

DramModel::DramModel(stats::Group &stats, DramParams params)
    : params(params),
      reads(stats, "dram_reads", "DRAM read requests"),
      writes(stats, "dram_writes", "DRAM write requests"),
      bytes_moved(stats, "dram_bytes", "bytes moved over the channel"),
      queue_delay(stats, "dram_queue_delay",
                  "cycles spent waiting for the channel")
{
    if (params.bytes_per_cycle <= 0)
        fatal("DRAM bandwidth must be positive");
}

} // namespace snpu
