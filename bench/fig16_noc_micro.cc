/**
 * @file
 * Fig 16 — NoC micro-test: core-to-core transfer cost (latency and
 * bandwidth) for the software NoC (shared memory), the unauthorized
 * direct NoC, and the peephole-protected NoC, swept over transaction
 * size (number of scratchpad lines). The software NoC is given the
 * paper's idealized conditions: the memory channel is otherwise
 * idle.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/soc.hh"
#include "json_writer.hh"
#include "sim/args.hh"

using namespace snpu;
using namespace snpu::bench;

namespace
{

/** Latency of one transfer of @p rows lines under @p mode. */
Tick
transferLatency(NocMode mode, std::uint32_t rows)
{
    Soc soc(makeSystem(SystemKind::snpu));
    if (mode == NocMode::software) {
        NocResult res =
            soc.npu().softwareTransfer(0, 0, 1, 0, 0, rows);
        if (!res.ok)
            std::exit(1);
        return res.done;
    }
    soc.npu().fabric().setMode(mode);
    NocResult res = soc.npu().fabric().transfer(0, 0, 1, 0, 0, rows);
    if (!res.ok)
        std::exit(1);
    return res.done;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    ArgSpec("fig16_noc_micro").json(&json_path).parse(argc, argv);

    banner("Figure 16", "NoC micro-test: transfer cost by method");

    Table lat({"lines", "software NoC", "unauthorized", "peephole",
               "sw/peephole", "peephole/unauth"});
    Table bw({"lines", "software GB/s", "unauthorized GB/s",
              "peephole GB/s"});

    for (std::uint32_t rows : {16u, 32u, 64u, 128u, 256u, 512u,
                               1024u, 2048u}) {
        const Tick sw = transferLatency(NocMode::software, rows);
        const Tick raw = transferLatency(NocMode::unauthorized, rows);
        const Tick peephole = transferLatency(NocMode::peephole, rows);

        lat.row({big(rows), big(sw), big(raw), big(peephole),
                 num(static_cast<double>(sw) / peephole),
                 num(static_cast<double>(peephole) / raw, 3)});

        const double bytes = rows * 16.0;
        bw.row({big(rows), num(bytes / sw, 2), num(bytes / raw, 2),
                num(bytes / peephole, 2)});
    }
    lat.print();
    std::printf("latency in cycles at 1 GHz; GB/s == bytes/cycle\n\n");
    bw.print();
    std::printf("(paper: the peephole cuts latency by about two "
                "thirds vs shared memory — about 3x bandwidth — and "
                "matches the unauthorized NoC, since authentication "
                "rides only the first head flit)\n");

    JsonReport report("fig16_noc_micro");
    report.table("latency_cycles", lat);
    report.table("bandwidth_gbps", bw);
    return report.write(json_path) ? 0 : 1;
}
