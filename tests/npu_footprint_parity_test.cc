/**
 * @file
 * Parity of the two scratchpad-check tiers. Every compiled program
 * runs on twin cores: a timing-only one, which derives the program's
 * footprint and checks and commits each stretch once, and a
 * functional one, which checks every row as it goes. The ExecResult,
 * both ID images and their fingerprints, the written-row record, the
 * fault-occurrence counts and the whole stat tree must come out
 * identical, under every isolation mode, from own, foreign and mixed
 * initial ID images, when an injected DMA fault cuts a stretch short,
 * and under fault plans that probe every scratchpad read.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "dma/protection_backend.hh"
#include "mem/mem_system.hh"
#include "noc/mesh.hh"
#include "npu/npu_core.hh"
#include "npu/spad_footprint.hh"
#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "tee/monitor/secure_loader.hh"
#include "tee/secure_world.hh"
#include "workload/compiler.hh"
#include "workload/model_zoo.hh"

namespace snpu
{
namespace
{

/** One workload: its segments run back to back on one core. */
struct Workload
{
    std::string name;
    std::vector<NpuProgram> segments;
};

/** Where the programs' buffers live (the normal-world NPU arena). */
Addr
arenaBase()
{
    stats::Group g("probe");
    MemSystem mem(g);
    return mem.map().npuArena(World::normal).base;
}

/**
 * Every zoo model at scale 8, once as a whole program and once as a
 * direct-NoC pipeline stage whose first activations never load (so
 * its first stretches read rows only the initial image owns), plus
 * the prefill and a decode step of both decoders, one segment per
 * layer as the serving scheduler compiles them. Built once.
 */
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> out;
        const TilingCompiler compiler;
        const Addr base = arenaBase();
        for (const ModelId id : allModels()) {
            const ModelSpec model = makeModel(id).scaled(8);
            out.push_back({modelName(id),
                           {compiler.compileModel(model, base)}});
            CompileOptions stage;
            stage.skip_first_a_load = true;
            out.push_back(
                {std::string(modelName(id)) + "_stage",
                 {compiler.compileModel(model, base, nullptr, stage)}});
        }
        for (const DecoderId id : allDecoders()) {
            const DecoderSpec d = makeDecoder(id);
            for (const bool prefill : {true, false}) {
                const ModelSpec model =
                    prefill ? makePrefill(d) : makeDecodeStep(d, 5);
                Workload w{std::string(decoderName(id)) +
                               (prefill ? "_prefill" : "_decode"),
                           {}};
                Addr cursor = base;
                for (const LayerSpec &layer : model.layers) {
                    ModelSpec single;
                    single.name = layer.name;
                    single.layers = {layer};
                    Addr bytes = 0;
                    w.segments.push_back(
                        compiler.compileModel(single, cursor, &bytes));
                    cursor += (bytes + 0xfff) & ~Addr(0xfff);
                }
                out.push_back(std::move(w));
            }
        }
        return out;
    }();
    return all;
}

enum class Image
{
    own,
    other,
    mixed,
};

/** One core in the secure world, with its own memory. */
struct Rig
{
    Rig(IsolationMode mode, Image image, bool timing_only = true)
        : stats("soc"), mem(stats)
    {
        NpuCoreParams p;
        p.timing_only = timing_only;
        p.isolation = mode;
        core = std::make_unique<NpuCore>(stats, mem, pass, p);
        core->setIdState(World::secure, true);
        Rng rng(0x1dba5e);
        for (Scratchpad *pad :
             {&core->scratchpad(), &core->accumulator()}) {
            // Under partition the image is the split: the secure
            // world owns every row, none, or the low half (which
            // every program here outgrows part way through).
            if (mode == IsolationMode::partition) {
                const std::uint32_t split[] = {pad->rows(), 0,
                                               pad->rows() / 2};
                pad->setMode(mode, split[static_cast<int>(image)]);
            }
            if (image != Image::mixed) {
                pad->setIdRange(0, pad->rows(),
                                image == Image::own ? World::secure
                                                    : World::normal);
                continue;
            }
            // Seeded runs of 1..64 rows, each owned by either world.
            for (std::uint32_t row = 0; row < pad->rows();) {
                const std::uint32_t n = std::min<std::uint32_t>(
                    1 + static_cast<std::uint32_t>(rng.below(64)),
                    pad->rows() - row);
                pad->setIdRange(row, n,
                                rng.chance(0.5) ? World::secure
                                                : World::normal);
                row += n;
            }
        }
    }

    stats::Group stats;
    MemSystem mem;
    PassThroughControl pass;
    std::unique_ptr<NpuCore> core;
};

/** Everything a run leaves observable. */
struct Observed
{
    std::vector<ExecResult> results;
    std::vector<DomainId> spad_ids, acc_ids;
    std::uint64_t spad_fp = 0, acc_fp = 0;
    std::vector<Scratchpad::WrittenRange> spad_written, acc_written;
    std::string stats;
    std::vector<std::uint64_t> occurrences;
    std::vector<std::uint64_t> fired;
};

/**
 * Run @p segments back to back on @p rig, recording written rows,
 * until one fails.
 */
Observed
observe(Rig &rig, const std::vector<NpuProgram> &segments,
        FaultInjector *inj = nullptr)
{
    NpuCore &core = *rig.core;
    core.armFaults(inj);
    core.scratchpad().beginWriteRecord();
    core.accumulator().beginWriteRecord();
    Observed o;
    Tick t = 0;
    for (const NpuProgram &seg : segments) {
        o.results.push_back(core.run(t, seg));
        t = o.results.back().end;
        if (!o.results.back().ok())
            break;
    }
    core.scratchpad().endWriteRecord(o.spad_written);
    core.accumulator().endWriteRecord(o.acc_written);
    o.spad_ids = core.scratchpad().idImage();
    o.acc_ids = core.accumulator().idImage();
    o.spad_fp = core.scratchpad().idFingerprint();
    o.acc_fp = core.accumulator().idFingerprint();
    std::ostringstream os;
    rig.stats.dumpJson(os);
    o.stats = os.str();
    if (inj) {
        for (const FaultSite site :
             {FaultSite::dma_transfer, FaultSite::spad_id_mismatch,
              FaultSite::spad_bit_flip}) {
            o.occurrences.push_back(inj->occurrences(site));
        }
        for (const FaultRecord &f : inj->fired())
            o.fired.push_back(f.occurrence);
    }
    return o;
}

bool
sameWritten(const std::vector<Scratchpad::WrittenRange> &a,
            const std::vector<Scratchpad::WrittenRange> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].first != b[i].first || a[i].count != b[i].count ||
            a[i].tag != b[i].tag)
            return false;
    }
    return true;
}

/**
 * Observe @p segments on a timing-only rig and a functional twin,
 * each under its own injector for @p plan (if any), and expect the
 * same. Returns the timing-only run.
 */
Observed expectParity(IsolationMode mode, Image image,
                      const std::vector<NpuProgram> &segments,
                      const FaultPlan *plan = nullptr);

void
expectSame(const Observed &fp, const Observed &rows)
{
    ASSERT_EQ(fp.results.size(), rows.results.size());
    for (std::size_t i = 0; i < fp.results.size(); ++i) {
        const ExecResult &a = fp.results[i];
        const ExecResult &b = rows.results[i];
        EXPECT_EQ(a.start, b.start);
        EXPECT_EQ(a.end, b.end);
        EXPECT_EQ(a.status.code(), b.status.code());
        EXPECT_EQ(a.error(), b.error());
        EXPECT_EQ(a.mac_busy, b.mac_busy);
        EXPECT_EQ(a.macs, b.macs);
        EXPECT_EQ(a.violations, b.violations);
        EXPECT_EQ(a.flush_cycles, b.flush_cycles);
    }
    EXPECT_TRUE(fp.spad_ids == rows.spad_ids);
    EXPECT_TRUE(fp.acc_ids == rows.acc_ids);
    EXPECT_EQ(fp.spad_fp, rows.spad_fp);
    EXPECT_EQ(fp.acc_fp, rows.acc_fp);
    EXPECT_TRUE(sameWritten(fp.spad_written, rows.spad_written));
    EXPECT_TRUE(sameWritten(fp.acc_written, rows.acc_written));
    EXPECT_EQ(fp.stats, rows.stats);
    EXPECT_EQ(fp.occurrences, rows.occurrences);
    EXPECT_EQ(fp.fired, rows.fired);
}

Observed
expectParity(IsolationMode mode, Image image,
             const std::vector<NpuProgram> &segments,
             const FaultPlan *plan)
{
    std::unique_ptr<FaultInjector> fp_inj, rows_inj;
    if (plan) {
        fp_inj = std::make_unique<FaultInjector>(*plan);
        rows_inj = std::make_unique<FaultInjector>(*plan);
    }
    Rig a(mode, image), b(mode, image, false);
    Observed fp = observe(a, segments, fp_inj.get());
    expectSame(fp, observe(b, segments, rows_inj.get()));
    return fp;
}

/** Both tiers of every workload from all three images. */
void
expectParityFromEveryImage(IsolationMode mode)
{
    for (const Workload &w : workloads()) {
        ASSERT_FALSE(
            programFootprint(w.segments.front(), 16).stretches.empty())
            << w.name;
        for (const Image image : {Image::own, Image::other, Image::mixed}) {
            SCOPED_TRACE(w.name + " image " +
                         std::to_string(static_cast<int>(image)));
            // An untargeted plan: spad reads stay countable in bulk,
            // and the occurrence counts must still come out per row.
            FaultPlan plan;
            FaultSpec never;
            never.site = FaultSite::monitor_verify;
            plan.faults.push_back(never);
            const Observed fp = expectParity(mode, image, w.segments, &plan);
            // From its own image every workload runs to the end.
            if (image == Image::own) {
                EXPECT_EQ(fp.results.size(), w.segments.size());
                EXPECT_TRUE(fp.results.back().ok())
                    << fp.results.back().error();
            }
        }
    }
}

TEST(FootprintParity, IdBasedFromEveryImage)
{
    expectParityFromEveryImage(IsolationMode::id_based);
}

TEST(FootprintParity, PartitionFromEveryImage)
{
    expectParityFromEveryImage(IsolationMode::partition);
}

TEST(FootprintParity, NoProtectionFromEveryImage)
{
    expectParityFromEveryImage(IsolationMode::none);
}

/**
 * The nth @p site probe of @p w, searched upward from the middle of
 * its probes, whose injected fault fails an instruction whose status
 * message starts with @p op; 0 if none does.
 */
std::uint64_t
faultingProbe(const Workload &w, FaultSite site, const std::string &op)
{
    Rig probe(IsolationMode::id_based, Image::own);
    FaultPlan quiet;
    quiet.faults.push_back(FaultSpec{FaultSite::monitor_verify});
    FaultInjector count(quiet);
    observe(probe, w.segments, &count);
    const std::uint64_t probes = count.occurrences(site);
    for (std::uint64_t nth = probes / 2 + 1; nth <= probes; ++nth) {
        FaultPlan plan;
        FaultSpec spec;
        spec.site = site;
        spec.nth = nth;
        plan.faults.push_back(spec);
        FaultInjector inj(plan);
        Rig rig(IsolationMode::id_based, Image::own);
        const Observed o = observe(rig, w.segments, &inj);
        if (o.results.back().error().rfind(op, 0) == 0)
            return nth;
    }
    return 0;
}

/**
 * The spad_id_mismatch occurrence that denies row 1 of the first
 * @p op instruction (an accumulating one if @p acc_read, whose
 * accumulator read is then denied) past the middle of @p w's row
 * reads; 0 if there is none. Every row read probes once, in program
 * order, a compute reading activation row r, then accumulator row r.
 */
std::uint64_t
readProbe(const Workload &w, Opcode op, bool acc_read)
{
    const auto reads = [](const Instr &in) -> std::uint64_t {
        switch (in.op) {
          case Opcode::preload:
            return 16;
          case Opcode::mvout:
            return in.rows;
          case Opcode::compute:
            return std::uint64_t{in.rows} * (in.accumulate ? 2 : 1);
          default:
            return 0;
        }
    };
    std::uint64_t total = 0;
    for (const NpuProgram &seg : w.segments) {
        for (const Instr &in : seg.code)
            total += reads(in);
    }
    std::uint64_t seen = 0;
    for (const NpuProgram &seg : w.segments) {
        for (const Instr &in : seg.code) {
            if (in.op == op && seen >= total / 2 &&
                (op == Opcode::preload || in.rows >= 2) &&
                (!acc_read || in.accumulate)) {
                const std::uint64_t row0 =
                    op == Opcode::compute ? reads(in) / in.rows : 1;
                return seen + row0 + (acc_read ? 1 : 0) + 1;
            }
            seen += reads(in);
        }
    }
    return 0;
}

/**
 * The @p nth @p site probe of @p w fails the instruction it lands
 * on, with a message starting @p op: commit the executed prefix.
 */
void
expectParityUnderFault(const Workload &w, FaultSite site,
                       std::uint64_t nth, const std::string &op)
{
    SCOPED_TRACE(w.name);
    FaultPlan plan;
    FaultSpec spec;
    spec.site = site;
    spec.nth = nth;
    plan.faults.push_back(spec);
    for (const Image image : {Image::own, Image::mixed}) {
        const Observed fp =
            expectParity(IsolationMode::id_based, image, w.segments, &plan);
        if (image == Image::own) {
            EXPECT_EQ(fp.results.back().error().rfind(op, 0), 0u)
                << fp.results.back().error();
        }
    }
}

/** A DMA fault in an @p op cuts a stretch short in every workload. */
void
expectParityUnderDmaFault(const std::string &op)
{
    bool any = false;
    for (const Workload &w : workloads()) {
        const std::uint64_t nth =
            faultingProbe(w, FaultSite::dma_transfer, op);
        // A workload without this kind of transfer (a NoC stage may
        // store nothing) has nothing to cut short.
        if (nth != 0) {
            any = true;
            expectParityUnderFault(w, FaultSite::dma_transfer, nth, op);
        }
    }
    EXPECT_TRUE(any);
}

/** An injected denial of a read by @p op, in every workload. */
void
expectParityUnderReadDenial(Opcode op, bool acc_read,
                            const std::string &message)
{
    bool any = false;
    for (const Workload &w : workloads()) {
        const std::uint64_t nth = readProbe(w, op, acc_read);
        if (nth != 0) {
            any = true;
            expectParityUnderFault(w, FaultSite::spad_id_mismatch, nth,
                                   message);
        }
    }
    EXPECT_TRUE(any);
}

TEST(FootprintParity, DmaFaultInLoadBatchCommitsPrefix)
{
    expectParityUnderDmaFault("mvin DMA");
}

TEST(FootprintParity, DmaFaultOnMvoutCommitsItsReads)
{
    expectParityUnderDmaFault("mvout DMA");
}

TEST(FootprintParity, ProbedReadDenialInComputeCommitsItsWrittenRows)
{
    expectParityUnderReadDenial(Opcode::compute, false,
                                "compute activation read denied");
    expectParityUnderReadDenial(Opcode::compute, true,
                                "compute accumulator read denied");
}

TEST(FootprintParity, ProbedReadDenialInPreloadAndMvoutCommitsPrefix)
{
    expectParityUnderReadDenial(Opcode::preload, false,
                                "preload scratchpad read denied");
    expectParityUnderReadDenial(Opcode::mvout, false,
                                "mvout accumulator read denied");
}

TEST(FootprintParity, ProbedBitFlipsMatchEveryRow)
{
    // Silent corruption at a per-read chance: every read is probed,
    // and the first corrupted segment ends degraded on both tiers.
    FaultPlan plan;
    FaultSpec flip;
    flip.site = FaultSite::spad_bit_flip;
    flip.trigger = FaultTrigger::probability;
    flip.probability = 1e-4;
    flip.max_fires = 0;
    plan.faults.push_back(flip);
    for (const Workload &w : workloads()) {
        SCOPED_TRACE(w.name);
        expectParity(IsolationMode::id_based, Image::mixed, w.segments,
                     &plan);
    }
}

TEST(FootprintParity, SecureLoaderCopyDerivesItsOwnFootprint)
{
    // The loader wraps a copy of the code in a sec_set_id prologue
    // and a sec_reset_spad epilogue; the copy starts without the
    // original's footprint and derives one for its own code.
    stats::Group g("mesh");
    Mesh mesh(g);
    SecureLoader loader(mesh);
    for (const Workload &w : workloads()) {
        SCOPED_TRACE(w.name);
        std::vector<NpuProgram> loaded(w.segments.size());
        for (std::size_t i = 0; i < w.segments.size(); ++i) {
            const std::uint32_t begin =
                programFootprint(w.segments[i], 16).stretches.front().begin;
            ASSERT_TRUE(loader.prepare(SecureContext::monitor(),
                                       w.segments[i], loaded[i]));
            ASSERT_EQ(programFootprint(loaded[i], 16).stretches.front().begin,
                      begin + 1);
        }
        expectParity(IsolationMode::id_based, Image::mixed, loaded);
    }
}

TEST(FootprintParity, CodeEditedAfterDerivationStillDenied)
{
    // A normal-world program loads rows [0, 16) and preloads them.
    // Edited in place after it ran, so its stretch no longer matches
    // the memo, to preload rows [32, 48) — secure rows it never
    // wrote — it is denied just as the functional core denies it.
    // The same holds for an edited copy.
    Instr lda{};
    lda.op = Opcode::mvin;
    lda.vaddr = arenaBase();
    lda.rows = 16;
    Instr pre{};
    pre.op = Opcode::preload;
    NpuProgram p;
    p.code = {lda, pre};
    p.tile_ends = {1};
    p.layer_ends = {1};

    Rig a(IsolationMode::id_based, Image::other),
        b(IsolationMode::id_based, Image::other, false);
    for (Rig *rig : {&a, &b}) {
        rig->core->setIdState(World::normal, true);
        rig->core->scratchpad().setIdRange(32, 16, World::secure);
    }
    ASSERT_TRUE(a.core->run(0, p).ok());
    ASSERT_EQ(programFootprint(p, 16).stretches.size(), 1u);

    p.code[1].spad_row = 32;
    NpuProgram copy = p;
    for (const NpuProgram *prog : {&p, &copy}) {
        const ExecResult timed = a.core->run(0, *prog);
        const ExecResult rows = b.core->run(0, *prog);
        EXPECT_EQ(timed.error(), "preload scratchpad read denied");
        EXPECT_EQ(timed.error(), rows.error());
        EXPECT_EQ(timed.violations, rows.violations);
    }
}

TEST(FootprintParity, OutOfRangeStretchRunsRowByRow)
{
    // A preload whose rows run past the last u32 row index: its
    // stretch fails the range check, and the per-row tier denies the
    // same row with the same message.
    Instr lda{};
    lda.op = Opcode::mvin;
    lda.vaddr = arenaBase();
    lda.rows = 16;
    Instr pre{};
    pre.op = Opcode::preload;
    pre.spad_row = 0xfffffff8u;
    NpuProgram p;
    p.code = {lda, pre};
    ASSERT_EQ(programFootprint(p, 16).stretches.size(), 1u);
    const Observed fp = expectParity(IsolationMode::id_based, Image::own, {p});
    EXPECT_EQ(fp.results.back().error(), "preload scratchpad read denied");
}

TEST(SpadFootprint, StretchesRecordReadFirstAndWrittenRows)
{
    // One tile: load A rows [0, 4) and weights [100, 116), preload,
    // compute into acc [8, 12) overwriting, then accumulating (the
    // second compute reads rows the first wrote), store acc [8, 12)
    // and read weights [100, 116) a second time. A second tile reads
    // A rows [2, 6), two of which it never wrote.
    NpuProgram p;
    Instr lda{};
    lda.op = Opcode::mvin;
    lda.spad_row = 0;
    lda.rows = 4;
    p.code.push_back(lda);
    Instr ldw{};
    ldw.op = Opcode::mvin_weight;
    ldw.spad_row = 100;
    ldw.rows = 16;
    p.code.push_back(ldw);
    Instr pre{};
    pre.op = Opcode::preload;
    pre.spad_row = 100;
    p.code.push_back(pre);
    Instr comp{};
    comp.op = Opcode::compute;
    comp.spad_row = 0;
    comp.spad_row2 = 8;
    comp.rows = 4;
    p.code.push_back(comp);
    comp.accumulate = true;
    p.code.push_back(comp);
    Instr st{};
    st.op = Opcode::mvout;
    st.spad_row = 8;
    st.rows = 4;
    p.code.push_back(st);
    p.code.push_back(pre);
    comp.spad_row = 2;
    comp.accumulate = false;
    p.code.push_back(comp);
    p.tile_ends = {6, 7};
    p.layer_ends = {7};

    const SpadFootprint &fp = programFootprint(p, 16);
    EXPECT_EQ(fp.dim, 16u);
    EXPECT_EQ(fp.code_size, p.code.size());
    ASSERT_EQ(fp.stretches.size(), 2u);
    const SpadFootprint::Stretch &s0 = fp.stretches[0];
    EXPECT_EQ(s0.begin, 0u);
    EXPECT_EQ(s0.end, 7u);
    EXPECT_EQ(s0.reads[0], 16u + 4 + 4 + 16);
    EXPECT_EQ(s0.writes[0], 4u + 16);
    EXPECT_EQ(s0.reads[1], 4u + 4);
    EXPECT_EQ(s0.writes[1], 4u + 4);
    // Nothing is read before it is written; the two spad writes stay
    // separate runs, the acc writes merge into one.
    const auto count = [&](const SpadFootprint::Stretch &s, PadId pad,
                           SpadFootprint::RunList list) {
        return s.run_counts[SpadFootprint::listIndex(pad, list)];
    };
    EXPECT_EQ(count(s0, PadId::spad, SpadFootprint::read_first), 0u);
    EXPECT_EQ(count(s0, PadId::spad, SpadFootprint::written), 2u);
    EXPECT_EQ(count(s0, PadId::acc, SpadFootprint::read_first), 0u);
    EXPECT_EQ(count(s0, PadId::acc, SpadFootprint::written), 1u);
    const SpadFootprint::Run *run = fp.runs.data() + s0.run_begin;
    EXPECT_EQ(run[0].first, 0u);
    EXPECT_EQ(run[0].count, 4u);
    EXPECT_EQ(run[1].first, 100u);
    EXPECT_EQ(run[1].count, 16u);
    EXPECT_EQ(run[2].first, 8u);
    EXPECT_EQ(run[2].count, 4u);

    // The second stretch starts from nothing written.
    const SpadFootprint::Stretch &s1 = fp.stretches[1];
    EXPECT_EQ(s1.begin, 7u);
    EXPECT_EQ(s1.end, 8u);
    ASSERT_EQ(count(s1, PadId::spad, SpadFootprint::read_first), 1u);
    run = fp.runs.data() + s1.run_begin;
    EXPECT_EQ(run[0].first, 2u);
    EXPECT_EQ(run[0].count, 4u);
    EXPECT_EQ(fp.runs.size(), 3u + 2);
}

TEST(SpadFootprint, CutsAtTileAndLayerEndsAndBoundaryInstructions)
{
    // Six fences with a boundary instruction at index 2, a tile end
    // at 3 and a layer end at 4 (the lists need not be in order):
    // stretches [0, 2), [3, 4), [4, 5), [5, 6).
    Instr fence{};
    fence.op = Opcode::fence;
    NpuProgram p;
    p.code.assign(6, fence);
    p.tile_ends = {3};
    p.layer_ends = {4, 3};
    for (const Opcode op :
         {Opcode::flush_spad, Opcode::sec_set_id, Opcode::sec_reset_spad,
          Opcode::noc_send, Opcode::noc_recv}) {
        EXPECT_TRUE(endsStretch(op));
        NpuProgram q = p;
        q.code[2].op = op;
        const auto &s = programFootprint(q, 16).stretches;
        ASSERT_EQ(s.size(), 4u);
        const std::uint32_t bounds[4][2] = {{0, 2}, {3, 4}, {4, 5}, {5, 6}};
        for (std::size_t i = 0; i < s.size(); ++i) {
            EXPECT_EQ(s[i].begin, bounds[i][0]);
            EXPECT_EQ(s[i].end, bounds[i][1]);
        }
    }
    EXPECT_FALSE(endsStretch(Opcode::fence));
}

TEST(SpadFootprint, MemoFollowsDimAndCodeLengthAndIsNotCopied)
{
    Instr pre{};
    pre.op = Opcode::preload;
    NpuProgram p;
    p.code = {pre};
    const SpadFootprint *first = &programFootprint(p, 16);
    EXPECT_EQ(&programFootprint(p, 16), first);
    EXPECT_EQ(first->stretches.front().reads[0], 16u);

    // Another array height reads other rows: derived again.
    EXPECT_EQ(programFootprint(p, 8).stretches.front().reads[0], 8u);

    // So does longer code.
    p.code.push_back(pre);
    EXPECT_EQ(programFootprint(p, 8).stretches.front().reads[0], 16u);

    // A copy derives for its own code, whatever the original holds.
    NpuProgram q = p;
    q.code.front().op = Opcode::sec_set_id;
    EXPECT_EQ(programFootprint(q, 8).stretches.front().begin, 1u);
    EXPECT_EQ(programFootprint(p, 8).stretches.front().begin, 0u);
    q = p;
    EXPECT_EQ(programFootprint(q, 8).stretches.front().begin, 0u);
}

TEST(SpadFootprint, OnlyAFreshFootprintSkipsTheHashOutsideTheSegmentCache)
{
    // A footprint is trusted without hashing its code only by the call
    // that derives it; a later call leaves each stretch to the hash
    // check. Only the serving scheduler's segment cache can seal one.
    static_assert(!std::is_default_constructible_v<FootprintSeal>);
    Instr pre{};
    pre.op = Opcode::preload;
    NpuProgram p;
    p.code = {pre};
    bool trusted = false;
    programFootprint(p, 16, &trusted);
    EXPECT_TRUE(trusted);
    programFootprint(p, 16, &trusted);
    EXPECT_FALSE(trusted);
    p.code.push_back(pre);
    programFootprint(p, 16, &trusted);
    EXPECT_TRUE(trusted);
}

} // namespace
} // namespace snpu
