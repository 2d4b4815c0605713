/**
 * @file
 * Tests for the model zoo and the tiling compiler's planning logic —
 * in particular the capacity behaviour that drives Fig 15.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/logging.hh"
#include "workload/compiler.hh"
#include "workload/mapping.hh"
#include "workload/model_zoo.hh"

namespace snpu
{
namespace
{

TEST(ModelZoo, AllModelsBuild)
{
    for (ModelId id : allModels()) {
        const ModelSpec model = makeModel(id);
        EXPECT_FALSE(model.layers.empty()) << modelName(id);
        EXPECT_GT(model.macs(), 0u) << modelName(id);
        for (const auto &layer : model.layers) {
            EXPECT_GT(layer.m, 0u);
            EXPECT_GT(layer.n, 0u);
            EXPECT_GT(layer.k, 0u);
        }
    }
}

TEST(ModelZoo, NameRoundTrip)
{
    for (ModelId id : allModels())
        EXPECT_EQ(modelByName(modelName(id)), id);
    EXPECT_THROW(modelByName("vgg"), FatalError);
}

TEST(ModelZoo, WeightFootprintsDiffer)
{
    // The weight-heavy nets must dominate the streaming nets: this
    // asymmetry is what Fig 15 exploits.
    const auto alexnet = makeModel(ModelId::alexnet);
    const auto yolo = makeModel(ModelId::yololite);
    EXPECT_GT(alexnet.weightBytes(), 10 * yolo.weightBytes());
}

TEST(ModelZoo, ScaledReducesWork)
{
    const auto full = makeModel(ModelId::resnet);
    const auto half = full.scaled(2);
    EXPECT_LT(half.macs(), full.macs());
    EXPECT_EQ(half.layers.size(), full.layers.size());
    // K and N (reuse structure) unchanged.
    EXPECT_EQ(half.layers[0].k, full.layers[0].k);
    EXPECT_EQ(half.layers[0].n, full.layers[0].n);
}

TEST(Compiler, PlanBasics)
{
    TilingCompiler compiler;
    LayerSpec layer;
    layer.m = 256;
    layer.n = 64;
    layer.k = 128;
    const LayerPlan plan = compiler.plan(layer);
    EXPECT_EQ(plan.k_tiles, 8u);
    EXPECT_EQ(plan.n_tiles, 4u);
    EXPECT_GE(plan.tm, 16u);
    EXPECT_EQ(plan.m_chunks,
              (layer.m + plan.tm - 1) / plan.tm);
    EXPECT_GT(plan.dma_bytes, 0u);
}

TEST(Compiler, SmallerScratchpadMeansMoreWeightTraffic)
{
    LayerSpec fc;
    fc.m = 128;
    fc.n = 4096;
    fc.k = 9216; // AlexNet fc6
    CompilerParams big;
    big.spad_rows = 16384;
    CompilerParams small;
    small.spad_rows = 4096;

    const LayerPlan big_plan = TilingCompiler(big).plan(fc);
    const LayerPlan small_plan = TilingCompiler(small).plan(fc);
    EXPECT_GT(small_plan.m_chunks, big_plan.m_chunks);
    EXPECT_GT(small_plan.dma_bytes, big_plan.dma_bytes);
}

TEST(Compiler, TinyWeightsBecomeResident)
{
    LayerSpec conv;
    conv.m = 12544;
    conv.n = 16;
    conv.k = 27; // YOLO-lite conv1
    TilingCompiler compiler;
    const LayerPlan plan = compiler.plan(conv);
    EXPECT_TRUE(plan.weights_resident);
    // Resident weights stream exactly once.
    EXPECT_EQ(plan.dma_bytes,
              conv.aBytes() + conv.cBytes() + conv.wBytes());
}

TEST(Compiler, VerySmallSpadDisablesDoubleBuffering)
{
    LayerSpec layer;
    layer.m = 256;
    layer.n = 1024;
    layer.k = 2048;
    CompilerParams tiny;
    tiny.spad_rows = 300;
    const LayerPlan plan = TilingCompiler(tiny).plan(layer);
    EXPECT_FALSE(plan.double_buffered);
}

TEST(Compiler, ProgramStructure)
{
    TilingCompiler compiler;
    ModelSpec model;
    model.name = "tiny";
    LayerSpec l1;
    l1.name = "l1";
    l1.m = 64;
    l1.n = 32;
    l1.k = 48;
    LayerSpec l2 = l1;
    l2.name = "l2";
    l2.k = 32;
    model.layers = {l1, l2};

    NpuProgram prog = compiler.compileModel(model, 0x1000'0000);
    EXPECT_FALSE(prog.code.empty());
    EXPECT_EQ(prog.layer_ends.size(), 2u);
    EXPECT_FALSE(prog.tile_ends.empty());
    EXPECT_EQ(prog.ideal_macs, l1.macs() + l2.macs());
    EXPECT_GT(prog.spad_rows_used, 0u);
    EXPECT_GT(prog.tile_live_rows, 0u);
    // Boundaries are sorted and in range.
    for (std::size_t i = 1; i < prog.tile_ends.size(); ++i)
        EXPECT_LT(prog.tile_ends[i - 1], prog.tile_ends[i]);
    EXPECT_LT(prog.layer_ends.back(), prog.code.size());

    // Instruction mix sanity: computes and mvins present, every
    // compute preceded by a preload for its weights.
    bool saw_compute = false;
    bool saw_mvin = false;
    for (const Instr &in : prog.code) {
        saw_compute |= in.op == Opcode::compute;
        saw_mvin |= in.op == Opcode::mvin;
    }
    EXPECT_TRUE(saw_compute);
    EXPECT_TRUE(saw_mvin);
}

TEST(Compiler, SkipFlagsRemoveBoundaryTraffic)
{
    TilingCompiler compiler;
    ModelSpec model;
    LayerSpec layer;
    layer.name = "l";
    layer.m = 64;
    layer.n = 32;
    layer.k = 32;
    model.layers = {layer};

    NpuProgram full = compiler.compileModel(model, 0x1000'0000);
    CompileOptions opts;
    opts.skip_first_a_load = true;
    opts.skip_last_c_store = true;
    NpuProgram skipped =
        compiler.compileModel(model, 0x1000'0000, nullptr, opts);

    auto count = [](const NpuProgram &p, Opcode op) {
        std::size_t n = 0;
        for (const Instr &in : p.code)
            n += in.op == op;
        return n;
    };
    EXPECT_GT(count(full, Opcode::mvin), count(skipped, Opcode::mvin));
    EXPECT_GT(count(full, Opcode::mvout),
              count(skipped, Opcode::mvout));
    EXPECT_EQ(count(skipped, Opcode::mvout), 0u);
}

TEST(Compiler, SpadUsageNeverExceedsBudget)
{
    for (ModelId id : allModels()) {
        for (std::uint32_t rows : {16384u, 8192u, 4096u}) {
            CompilerParams cp;
            cp.spad_rows = rows;
            TilingCompiler compiler(cp);
            NpuProgram prog =
                compiler.compileModel(makeModel(id).scaled(8),
                                      0x1000'0000);
            EXPECT_LE(prog.spad_rows_used, rows)
                << modelName(id) << " rows=" << rows;
        }
    }
}

TEST(Compiler, ModelCodeIsExactSizeAndMatchesLayerByLayer)
{
    TilingCompiler compiler;
    const CompilerParams &cp = compiler.params();
    const Addr va_base = 0x1000'0000;
    auto page_up = [](Addr bytes) {
        return (bytes + 4095) & ~Addr(4095);
    };
    auto tiles = [&](std::uint32_t extent) {
        return static_cast<Addr>((std::max(extent, 1u) + cp.dim - 1) /
                                 cp.dim);
    };
    for (ModelId id : allModels()) {
        SCOPED_TRACE(modelName(id));
        const ModelSpec model = makeModel(id).scaled(8);
        const NpuProgram prog = compiler.compileModel(model, va_base);
        EXPECT_EQ(prog.code.size(), prog.code.capacity());

        // The same buffer layout, appended one compileLayer at a time.
        NpuProgram ref;
        Addr cursor = va_base;
        Addr prev_out = 0;
        for (std::size_t i = 0; i < model.layers.size(); ++i) {
            const LayerSpec &layer = model.layers[i];
            const Addr k_tiles = tiles(layer.k);
            const Addr n_tiles = tiles(layer.n);
            const Addr row = spad_wordline_bytes;
            LayerBuffers bufs;
            if (i == 0) {
                bufs.a_base = cursor;
                cursor += page_up(k_tiles * layer.m * row);
            } else {
                bufs.a_base = prev_out;
            }
            bufs.w_base = cursor;
            cursor += page_up(n_tiles * k_tiles * cp.dim * row);
            bufs.c_base = cursor;
            cursor += page_up(n_tiles * layer.m * row);
            prev_out = bufs.c_base;
            compiler.compileLayer(layer, bufs, ref);
        }
        EXPECT_TRUE(prog.code == ref.code);
        EXPECT_EQ(prog.tile_ends, ref.tile_ends);
        EXPECT_EQ(prog.layer_ends, ref.layer_ends);
        EXPECT_EQ(prog.ideal_macs, ref.ideal_macs);
        EXPECT_EQ(prog.spad_rows_used, ref.spad_rows_used);
        EXPECT_EQ(prog.tile_live_rows, ref.tile_live_rows);
    }
}

TEST(Mapping, BalancedStagesCoverModel)
{
    const ModelSpec model = makeModel(ModelId::resnet);
    const auto stages = balanceStages(model, 4);
    ASSERT_EQ(stages.size(), 4u);
    std::size_t covered = 0;
    std::uint64_t macs = 0;
    for (const auto &stage : stages) {
        EXPECT_EQ(stage.first_layer, covered);
        covered += stage.layer_count;
        macs += stage.macs;
        EXPECT_GT(stage.layer_count, 0u);
    }
    EXPECT_EQ(covered, model.layers.size());
    EXPECT_EQ(macs, model.macs());
}

TEST(Mapping, StagesAreRoughlyBalanced)
{
    const ModelSpec model = makeModel(ModelId::bert);
    const auto stages = balanceStages(model, 3);
    const std::uint64_t target = model.macs() / 3;
    for (const auto &stage : stages)
        EXPECT_LT(stage.macs, 2 * target);
}

TEST(Mapping, MoreStagesThanLayersClamped)
{
    ModelSpec model;
    LayerSpec layer;
    layer.m = layer.n = layer.k = 16;
    model.layers = {layer, layer};
    const auto stages = balanceStages(model, 8);
    EXPECT_EQ(stages.size(), 2u);
}

TEST(Mapping, StageModelExtractsLayers)
{
    const ModelSpec model = makeModel(ModelId::alexnet);
    const auto stages = balanceStages(model, 2);
    const ModelSpec sub = stageModel(model, stages[1]);
    EXPECT_EQ(sub.layers.size(), stages[1].layer_count);
    EXPECT_EQ(sub.layers[0].name,
              model.layers[stages[1].first_layer].name);
}

} // namespace
} // namespace snpu
