#include "workload/compiler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snpu
{

TilingCompiler::TilingCompiler(CompilerParams params)
    : cfg(params)
{
    if (cfg.dim == 0 || cfg.spad_rows == 0 || cfg.acc_rows == 0)
        fatal("compiler needs nonzero geometry");
    if (spad_wordline_bytes < cfg.dim)
        fatal("scratchpad row narrower than one activation row");
}

namespace
{

std::uint32_t
ceilDiv(std::uint32_t a, std::uint32_t b)
{
    return (a + b - 1) / b;
}

} // namespace

namespace
{

/** Rough cycle estimate used to choose between candidate plans. */
double
estimateCycles(const LayerSpec &layer, const LayerPlan &p,
               std::uint32_t dim, double bytes_per_cycle)
{
    const double computes =
        static_cast<double>(p.k_tiles) * p.n_tiles * p.m_chunks;
    const double mac =
        computes * (static_cast<double>(p.tm) + 2.0 * dim) +
        computes * dim; // preloads
    const double dma =
        static_cast<double>(p.dma_bytes) / bytes_per_cycle;
    // Double buffering overlaps the two; single buffering pays both.
    return p.double_buffered ? std::max(mac, dma) : mac + dma;
    (void)layer;
}

} // namespace

LayerPlan
TilingCompiler::plan(const LayerSpec &layer) const
{
    const std::uint32_t dim = cfg.dim;
    const std::uint32_t budget = cfg.spad_rows;
    const std::uint32_t k_tiles = ceilDiv(std::max(layer.k, 1u), dim);
    const std::uint32_t n_tiles = ceilDiv(std::max(layer.n, 1u), dim);

    // Build a candidate plan for a given buffering discipline and
    // weight-segment size; returns tm == 0 when it cannot fit.
    auto candidate = [&](bool db, std::uint32_t w_seg_tiles) {
        LayerPlan p;
        p.k_tiles = k_tiles;
        p.n_tiles = n_tiles;
        p.w_seg_tiles = w_seg_tiles;
        p.double_buffered = db;
        const std::uint32_t w_rows = w_seg_tiles * dim;
        const std::uint32_t copies = db ? 2 : 1;
        std::uint32_t tm = 0;
        if (budget > copies * w_rows)
            tm = (budget - copies * w_rows) / (copies * k_tiles);
        tm = std::min({tm, layer.m, cfg.acc_rows});
        while (tm > 1 && tm * k_tiles + w_rows > budget)
            --tm;
        if (tm == 0 || tm * k_tiles + w_rows > budget) {
            p.tm = 0;
            return p;
        }
        // Avoid a ragged final chunk: balance chunk heights.
        std::uint32_t chunks = ceilDiv(layer.m, tm);
        tm = ceilDiv(layer.m, chunks);
        p.tm = tm;
        p.m_chunks = ceilDiv(layer.m, tm);

        const std::uint32_t w_all_rows = k_tiles * n_tiles * dim;
        p.weights_resident =
            !layer.stream_weights && w_seg_tiles == k_tiles &&
            w_all_rows + copies * tm * k_tiles <= budget;
        const std::uint64_t w_loads =
            p.weights_resident ? 1 : p.m_chunks;
        p.dma_bytes = layer.aBytes() + layer.cBytes() +
                      layer.wBytes() * w_loads;
        return p;
    };

    const std::uint32_t seg_small =
        std::max(1u, std::min(k_tiles, budget / 4 / dim));
    const LayerPlan candidates[] = {
        candidate(true, k_tiles),
        candidate(true, seg_small),
        candidate(false, k_tiles),
        candidate(false, seg_small),
    };

    const LayerPlan *best = nullptr;
    double best_cost = 0;
    for (const LayerPlan &p : candidates) {
        if (p.tm == 0)
            continue;
        const double cost = estimateCycles(layer, p, dim, 16.0);
        if (!best || cost < best_cost) {
            best = &p;
            best_cost = cost;
        }
    }
    if (!best) {
        fatal("layer ", layer.name, " cannot fit a scratchpad of ",
              budget, " rows (K=", layer.k, ")");
    }
    return *best;
}

namespace
{

/** Emission target of compileModel's sizing pass: counts only. */
struct CountingSink
{
    std::size_t instrs = 0;
    std::size_t tiles = 0;

    void footprint(std::uint32_t, std::uint32_t) {}
    void emit(const Instr &) { ++instrs; }
    void tileEnd() { ++tiles; }
    void layerEnd(std::uint64_t) {}
};

/** Emission target that appends to a program. */
struct ProgramSink
{
    NpuProgram &program;

    void
    footprint(std::uint32_t rows_used, std::uint32_t live_rows)
    {
        program.spad_rows_used = rows_used;
        program.tile_live_rows =
            std::max(program.tile_live_rows, live_rows);
    }
    void emit(const Instr &instr) { program.code.push_back(instr); }
    void
    tileEnd()
    {
        program.tile_ends.push_back(program.code.size() - 1);
    }
    void
    layerEnd(std::uint64_t macs)
    {
        program.ideal_macs += macs;
        program.layer_ends.push_back(program.code.size() - 1);
    }
};

/**
 * Lower @p layer under plan @p p into @p out. Both passes of
 * compileModel run this one emitter, so the sizing pass cannot
 * disagree with the instructions actually stored.
 */
template <typename Sink>
void
emitLayer(const CompilerParams &cfg, const LayerSpec &layer,
          const LayerPlan &p, const LayerBuffers &bufs, bool skip_a,
          bool skip_c, Sink &out)
{
    const std::uint32_t dim = cfg.dim;

    // Scratchpad row layout for this layer (relative to the task's
    // partition base):
    //   [0, a_rows)            A chunk buffers (x2 when double buffered)
    //   [a_rows, a_rows+w_rows) weight column buffers
    const std::uint32_t a_buf_rows = p.tm * p.k_tiles;
    const std::uint32_t a_copies = p.double_buffered ? 2 : 1;
    const std::uint32_t w_seg_rows = p.w_seg_tiles * dim;
    const std::uint32_t w_base_row =
        cfg.spad_row_base + a_buf_rows * a_copies;
    const std::uint32_t w_copies =
        p.weights_resident ? p.n_tiles
                           : (p.double_buffered ? 2u : 1u);

    // Rows used, and the live context at a mid-layer (tile)
    // preemption point: the staged weight column plus the in-flight
    // M-chunk rows. Clean bulk A data beyond the chunk is refetched
    // lazily on resume.
    out.footprint(std::min(cfg.spad_row_base + cfg.spad_rows,
                           w_base_row + w_seg_rows * w_copies),
                  w_seg_rows + p.tm);

    Instr cfg_instr;
    cfg_instr.op = Opcode::config;
    cfg_instr.act = layer.relu ? Activation::relu : Activation::none;
    out.emit(cfg_instr);

    const std::uint32_t acc_base = cfg.acc_row_base;
    bool weights_loaded = false;

    for (std::uint32_t mc = 0; mc < p.m_chunks; ++mc) {
        const std::uint32_t m0 = mc * p.tm;
        const std::uint32_t rows = std::min(p.tm, layer.m - m0);
        const std::uint32_t a_row_base =
            cfg.spad_row_base + (mc % a_copies) * a_buf_rows;

        // Load the A chunk: one DMA request per K-tile column
        // (column-major tile layout in memory keeps each request
        // contiguous).
        for (std::uint32_t kt = 0; skip_a ? false : kt < p.k_tiles;
             ++kt) {
            std::uint32_t remaining = rows;
            std::uint32_t row_off = 0;
            while (remaining > 0) {
                const std::uint32_t burst =
                    std::min(remaining, TilingCompiler::max_request_rows);
                Instr mvin;
                mvin.op = Opcode::mvin;
                mvin.vaddr = bufs.a_base +
                             (static_cast<Addr>(kt) * layer.m + m0 +
                              row_off) *
                                 spad_wordline_bytes;
                mvin.spad_row = a_row_base + kt * p.tm + row_off;
                mvin.rows = burst;
                out.emit(mvin);
                remaining -= burst;
                row_off += burst;
            }
        }
        if (!p.double_buffered) {
            Instr fence;
            fence.op = Opcode::fence;
            out.emit(fence);
        }

        for (std::uint32_t nt = 0; nt < p.n_tiles; ++nt) {
            // Weights for this N tile stream in segments of
            // w_seg_tiles K-tiles (the whole column when it fits).
            std::uint32_t seg = 0;
            for (std::uint32_t kt0 = 0; kt0 < p.k_tiles;
                 kt0 += p.w_seg_tiles, ++seg) {
                const std::uint32_t seg_tiles =
                    std::min(p.w_seg_tiles, p.k_tiles - kt0);
                const std::uint32_t seg_rows = seg_tiles * dim;
                const std::uint32_t w_row_base =
                    p.weights_resident
                        ? w_base_row + nt * w_seg_rows
                        : w_base_row +
                              ((nt + seg) % w_copies) * w_seg_rows;

                const bool skip_load = p.weights_resident && mc > 0;
                if (!skip_load &&
                    !(p.weights_resident && weights_loaded)) {
                    std::uint32_t remaining = seg_rows;
                    std::uint32_t row_off = 0;
                    while (remaining > 0) {
                        const std::uint32_t burst = std::min(
                            remaining, TilingCompiler::max_request_rows);
                        Instr mvw;
                        mvw.op = Opcode::mvin_weight;
                        mvw.vaddr =
                            bufs.w_base +
                            (static_cast<Addr>(nt) * p.k_tiles *
                                 dim +
                             static_cast<Addr>(kt0) * dim +
                             row_off) *
                                spad_wordline_bytes;
                        mvw.spad_row = w_row_base + row_off;
                        mvw.rows = burst;
                        out.emit(mvw);
                        remaining -= burst;
                        row_off += burst;
                    }
                    if (!p.double_buffered) {
                        Instr fence;
                        fence.op = Opcode::fence;
                        out.emit(fence);
                    }
                }

                for (std::uint32_t kt = kt0; kt < kt0 + seg_tiles;
                     ++kt) {
                    Instr preload;
                    preload.op = Opcode::preload;
                    preload.spad_row =
                        w_row_base + (kt - kt0) * dim;
                    out.emit(preload);

                    Instr compute;
                    compute.op = Opcode::compute;
                    compute.spad_row = a_row_base + kt * p.tm;
                    compute.spad_row2 = acc_base;
                    compute.rows = rows;
                    compute.k = std::min(dim, layer.k - kt * dim);
                    compute.accumulate = kt > 0;
                    out.emit(compute);
                }
            }

            if (!skip_c) {
                Instr mvout;
                mvout.op = Opcode::mvout;
                mvout.vaddr = bufs.c_base +
                              (static_cast<Addr>(nt) * layer.m + m0) *
                                  spad_wordline_bytes;
                mvout.spad_row = acc_base;
                mvout.rows = rows;
                out.emit(mvout);
            }

            // Tile boundary (op-kernel scheduling point).
            out.tileEnd();
        }
        if (p.weights_resident)
            weights_loaded = true;
    }

    out.layerEnd(layer.macs());
}

} // namespace

void
TilingCompiler::compileLayer(const LayerSpec &layer,
                             const LayerBuffers &bufs,
                             NpuProgram &program, bool skip_a,
                             bool skip_c) const
{
    ProgramSink sink{program};
    emitLayer(cfg, layer, plan(layer), bufs, skip_a, skip_c, sink);
}

NpuProgram
TilingCompiler::compileModel(const ModelSpec &model, Addr va_base,
                             Addr *va_bytes,
                             const CompileOptions &opts) const
{
    NpuProgram program;
    Addr cursor = va_base;

    // Buffer layout: [input0][weights0][out0][weights1][out1]...
    // Layer i reads the previous layer's output buffer.
    auto advance = [&](Addr bytes) {
        const Addr base = cursor;
        // Keep buffers page-aligned so IOMMU mappings are simple.
        cursor += (bytes + 4095) & ~Addr(4095);
        return base;
    };

    // Lay out every layer's buffers and plan it first, so the code
    // can be sized exactly before one instruction is stored.
    struct Step
    {
        const LayerSpec &layer;
        LayerPlan plan;
        LayerBuffers bufs;
        bool skip_a;
        bool skip_c;
    };
    std::vector<Step> steps;
    steps.reserve(model.layers.size());
    Addr prev_out = 0;
    for (std::size_t i = 0; i < model.layers.size(); ++i) {
        const LayerSpec &layer = model.layers[i];
        LayerBuffers bufs;
        // A is stored K-tile-column-major: k_tiles * m rows of 16 B.
        const std::uint32_t k_tiles =
            ceilDiv(std::max(layer.k, 1u), cfg.dim);
        const std::uint32_t n_tiles =
            ceilDiv(std::max(layer.n, 1u), cfg.dim);
        const Addr a_bytes = static_cast<Addr>(k_tiles) * layer.m *
                             spad_wordline_bytes;
        const Addr w_bytes = static_cast<Addr>(n_tiles) * k_tiles *
                             cfg.dim * spad_wordline_bytes;
        const Addr c_bytes = static_cast<Addr>(n_tiles) * layer.m *
                             spad_wordline_bytes;

        if (i == 0) {
            bufs.a_base = opts.input_base ? opts.input_base
                                          : advance(a_bytes);
        } else {
            bufs.a_base = prev_out;
        }
        bufs.w_base = advance(w_bytes);
        bufs.c_base = advance(c_bytes);
        prev_out = bufs.c_base;

        steps.push_back(Step{
            layer, plan(layer), bufs, opts.skip_first_a_load && i == 0,
            opts.skip_last_c_store && i + 1 == model.layers.size()});
    }

    // Sizing pass: the same emitter, counting only.
    CountingSink count;
    for (const Step &s : steps)
        emitLayer(cfg, s.layer, s.plan, s.bufs, s.skip_a, s.skip_c,
                  count);
    program.code.reserve(count.instrs);
    program.tile_ends.reserve(count.tiles);
    program.layer_ends.reserve(steps.size());

    ProgramSink sink{program};
    for (const Step &s : steps)
        emitLayer(cfg, s.layer, s.plan, s.bufs, s.skip_a, s.skip_c,
                  sink);

    if (va_bytes)
        *va_bytes = cursor - va_base;
    return program;
}

} // namespace snpu
