/**
 * @file
 * Ablation — the §VII extensions quantified:
 *
 *  (a) Multiple hardware secure domains: per-wordline tag bits grow
 *      with log2(domains); the table shows the RAM cost of 2..16
 *      domains against the paper's <1% two-domain budget.
 *  (b) Memory encryption: sNPU layered over a TNPU-style DRAM
 *      encryption engine — the combination the paper calls
 *      complementary — costs only the encryption engine's few
 *      percent on top of sNPU's zero.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/area_model.hh"
#include "core/systems.hh"
#include "json_writer.hh"
#include "sim/args.hh"

using namespace snpu;
using namespace snpu::bench;

int
main(int argc, char **argv)
{
    std::string json_path;
    ArgSpec("abl_extensions").json(&json_path).parse(argc, argv);

    banner("Ablation C", "Hardware secure domains vs tag-bit cost");

    AreaModel model(makeSystem(SystemKind::snpu));
    const Resources tile = model.baselineTile();
    Table dom({"domains", "tag bits", "extra RAM bits", "RAM +%"});
    for (std::uint32_t domains : {2u, 4u, 8u, 16u}) {
        std::uint32_t bits = 0;
        for (std::uint32_t d = domains; d > 1; d >>= 1)
            ++bits;
        const Resources extra = model.sSpadMultiDomain(domains);
        dom.row({std::to_string(domains), std::to_string(bits),
                 big(static_cast<std::uint64_t>(extra.ram_bits)),
                 num(tile.percentOver(extra).ram_bits) + "%"});
    }
    dom.print();
    std::printf("(the paper keeps two hardware domains to match "
                "TrustZone; the tag-bit cost of more stays small "
                "but grows linearly in log2(domains))\n\n");

    banner("Ablation D", "sNPU + TNPU-style memory encryption");
    Table enc({"workload", "sNPU", "sNPU + encryption", "overhead"});
    SystemOverrides plain;
    plain.model_scale = 4;
    SystemOverrides crypt = plain;
    crypt.memory_encryption = true;
    for (ModelId id : allModels()) {
        RunResult base = measureModel(SystemKind::snpu, id, plain);
        RunResult with = measureModel(SystemKind::snpu, id, crypt);
        if (!base.ok() || !with.ok()) {
            std::printf("ERROR %s\n", modelName(id));
            return 1;
        }
        enc.row({modelName(id), big(base.cycles), big(with.cycles),
                 num(100.0 * (static_cast<double>(with.cycles) /
                                  static_cast<double>(base.cycles) -
                              1.0),
                     1) +
                     "%"});
    }
    enc.print();
    std::printf("(sNPU guards the on-chip structures encryption "
                "cannot see; the engine guards DRAM against physical "
                "attack — together they cost only the engine's "
                "single-digit percentage)\n");

    JsonReport report("abl_extensions");
    report.table("domains", dom);
    report.table("encryption", enc);
    return report.write(json_path) ? 0 : 1;
}
