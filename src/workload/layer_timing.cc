#include "workload/layer_timing.hh"

#include "sim/hashing.hh"

namespace snpu
{

namespace
{

/** Scan the instruction stream once, producing both the fingerprint
 *  and the cacheability verdict; memoized on the program. */
void
scanProgram(const NpuProgram &prog)
{
    std::uint64_t h = fnv_offset;
    bool cacheable = true;
    for (const Instr &in : prog.code) {
        // Widened field image instead of per-field mixing: the field
        // order fixes the encoding, so this is as collision-safe as
        // eleven hashMix calls at an eighth of the cost.
        const std::uint64_t fields[11] = {
            std::uint64_t(in.op),         in.vaddr,
            std::uint64_t(in.spad_row),   std::uint64_t(in.spad_row2),
            std::uint64_t(in.rows),       std::uint64_t(in.k),
            std::uint64_t(in.peer),       std::uint64_t(in.act),
            std::uint64_t(in.accumulate), std::uint64_t(in.privileged),
            std::uint64_t(in.world)};
        h = hashBytesFast(fields, sizeof(fields), h);
        switch (in.op) {
          case Opcode::flush_spad:  // functional memory round trip
          case Opcode::noc_send:    // fabric state is not bracketed
          case Opcode::noc_recv:
          case Opcode::sec_set_id:  // changes the core's world
            cacheable = false;
            break;
          default:
            break;
        }
    }
    for (std::size_t end : prog.layer_ends)
        h = hashMix(h, std::uint64_t(end));
    h = hashMix(h, std::uint64_t(0x1f)); // separator
    for (std::size_t end : prog.tile_ends)
        h = hashMix(h, std::uint64_t(end));
    h = hashMix(h, prog.ideal_macs);
    h = hashMix(h, std::uint64_t(prog.spad_rows_used));
    h = hashMix(h, std::uint64_t(prog.tile_live_rows));

    prog.timing_fp = h;
    prog.timing_cacheable = cacheable;
    prog.timing_fp_valid = true;
}

} // namespace

std::uint64_t
programFingerprint(const NpuProgram &prog)
{
    if (!prog.timing_fp_valid)
        scanProgram(prog);
    return prog.timing_fp;
}

bool
programCacheable(const NpuProgram &prog)
{
    if (!prog.timing_fp_valid)
        scanProgram(prog);
    return prog.timing_cacheable;
}

std::uint64_t
modelFingerprint(const ModelSpec &model)
{
    std::uint64_t h = fnv_offset;
    h = hashMix(h, model.name);
    for (const LayerSpec &layer : model.layers) {
        h = hashMix(h, layer.name);
        const std::uint64_t fields[6] = {
            std::uint64_t(layer.kind), std::uint64_t(layer.m),
            std::uint64_t(layer.n), std::uint64_t(layer.k),
            std::uint64_t(layer.relu),
            std::uint64_t(layer.stream_weights)};
        h = hashBytesFast(fields, sizeof(fields), h);
    }
    return h;
}

// The keys below hash a widened field image (see scanProgram): each
// part is memoized at its owner, so a key is a handful of loads and
// one pass of hashBytesFast.

std::uint64_t
coreConfigFingerprint(NpuCore &core)
{
    const NpuCoreParams &p = core.coreParams();
    const std::uint64_t fields[8] = {
        std::uint64_t(p.systolic.dim),
        std::uint64_t(p.timing_only),
        std::uint64_t(p.dma.packet_bytes),
        p.dma.issue_interval,
        std::uint64_t(p.dma.through_l2),
        std::uint64_t(p.dma.channels),
        core.scratchpad().configFingerprint(),
        core.accumulator().configFingerprint()};
    return hashBytesFast(fields, sizeof(fields));
}

std::uint64_t
idImageFingerprint(NpuCore &core)
{
    const std::uint64_t fields[2] = {core.scratchpad().idFingerprint(),
                                     core.accumulator().idFingerprint()};
    return hashBytesFast(fields, sizeof(fields));
}

LayerTimingKey
makeExecKey(std::uint32_t core_index, NpuCore &core,
            ProtectionBackend &backend, const NpuProgram &prog,
            const ExecOptions &eo, Addr va_base, Addr va_bytes,
            std::uint64_t soc_config_fp)
{
    const std::uint64_t fields[12] = {
        1, // op kind: program execution
        std::uint64_t(core_index),
        soc_config_fp,
        programFingerprint(prog),
        coreConfigFingerprint(core),
        std::uint64_t(core.idState()),
        std::uint64_t(eo.flush),
        eo.flush_save_area,
        std::uint64_t(eo.noc),
        idImageFingerprint(core),
        backend.timingFingerprint(),
        backend.contextFingerprint(va_base, va_bytes)};
    LayerTimingKey key;
    key.hash = hashBytesFast(fields, sizeof(fields));
    key.cacheable = programCacheable(prog) &&
                    eo.flush == FlushGranularity::none;
    return key;
}

LayerTimingKey
makeFlushKey(std::uint32_t core_index, NpuCore &core,
             std::uint32_t live_rows, Addr save_area,
             std::uint64_t soc_config_fp)
{
    const std::uint64_t fields[7] = {
        2, // op kind: context flush
        std::uint64_t(core_index),
        soc_config_fp,
        coreConfigFingerprint(core),
        std::uint64_t(live_rows),
        save_area,
        idImageFingerprint(core)};
    LayerTimingKey key;
    key.hash = hashBytesFast(fields, sizeof(fields));
    return key;
}

} // namespace snpu
