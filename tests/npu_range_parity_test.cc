/**
 * @file
 * Parity of the timing-only NpuCore's range-checked fast path with
 * the functional core, which always checks row by row. A denied row,
 * an injected wordline fault and the fault-occurrence counts must
 * come out identical: same status code and message, same end tick,
 * same stats registry, same fault log.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "dma/protection_backend.hh"
#include "mem/mem_system.hh"
#include "npu/npu_core.hh"
#include "sim/fault_injector.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

/** One core with its own memory system and stats tree. */
struct Rig
{
    explicit Rig(bool timing_only) : stats("soc"), mem(stats)
    {
        NpuCoreParams p;
        p.spad_rows = 1024;
        p.acc_rows = 256;
        p.timing_only = timing_only;
        core = std::make_unique<NpuCore>(stats, mem, pass, p);
    }

    std::string statsJson() const
    {
        std::ostringstream os;
        stats.dumpJson(os);
        return os.str();
    }

    double stat(const std::string &path) const
    {
        const auto *s =
            dynamic_cast<const stats::Scalar *>(stats.find(path));
        EXPECT_NE(s, nullptr) << path;
        return s ? s->value() : -1;
    }

    stats::Group stats;
    MemSystem mem;
    PassThroughControl pass;
    std::unique_ptr<NpuCore> core;
};

/**
 * Two K-tiles of A x W accumulated into acc rows [0, 16), then a
 * store of acc rows [mvout_row, mvout_row + 16).
 */
NpuProgram
gemmProgram(Addr base, std::uint32_t mvout_row = 0)
{
    NpuProgram prog;
    for (std::uint32_t kt = 0; kt < 2; ++kt) {
        Instr lda;
        lda.op = Opcode::mvin;
        lda.vaddr = base;
        lda.spad_row = kt * 16;
        lda.rows = 16;
        prog.code.push_back(lda);

        Instr ldw;
        ldw.op = Opcode::mvin_weight;
        ldw.vaddr = base + 0x1000;
        ldw.spad_row = 200 + kt * 16;
        ldw.rows = 16;
        prog.code.push_back(ldw);

        Instr preload;
        preload.op = Opcode::preload;
        preload.spad_row = 200 + kt * 16;
        prog.code.push_back(preload);

        Instr compute;
        compute.op = Opcode::compute;
        compute.spad_row = kt * 16;
        compute.spad_row2 = 0;
        compute.rows = 16;
        compute.k = 16;
        compute.accumulate = kt > 0;
        prog.code.push_back(compute);
    }
    Instr st;
    st.op = Opcode::mvout;
    st.vaddr = base + 0x4000;
    st.spad_row = mvout_row;
    st.rows = 16;
    prog.code.push_back(st);
    return prog;
}

void
expectSameRun(Rig &functional, Rig &timing, const NpuProgram &prog)
{
    const ExecResult f = functional.core->run(0, prog);
    const ExecResult t = timing.core->run(0, prog);
    EXPECT_EQ(f.status.code(), t.status.code());
    EXPECT_EQ(f.status.message(), t.status.message());
    EXPECT_EQ(f.end, t.end);
    EXPECT_EQ(f.violations, t.violations);
    EXPECT_EQ(f.macs, t.macs);
    EXPECT_EQ(functional.statsJson(), timing.statsJson());
    EXPECT_EQ(functional.core->scratchpad().idImage(),
              timing.core->scratchpad().idImage());
    EXPECT_EQ(functional.core->accumulator().idImage(),
              timing.core->accumulator().idImage());
}

Addr
normalBase(Rig &rig)
{
    return rig.mem.map().npuArena(World::normal).base;
}

TEST(NpuRangeParity, ForeignAccumulatorRowsDenyLikeFunctionalCore)
{
    // Every accumulator row the second K-tile accumulates into is
    // owned by the secure world; the core runs as normal.
    Rig functional(false), timing(true);
    for (Rig *rig : {&functional, &timing})
        rig->core->accumulator().setIdRange(16, 240, World::secure);
    const NpuProgram prog = gemmProgram(normalBase(timing), 16);
    expectSameRun(functional, timing, prog);
    EXPECT_EQ(timing.stat("core0.acc.spad_denied"), 1);
    EXPECT_EQ(timing.stat("core0.npu_violations"), 1);
}

TEST(NpuRangeParity, OneForeignRowMidRangeDeniesAtThatRow)
{
    // Row 5 of the accumulate range belongs to the other world: the
    // first five rows run, the sixth is denied.
    Rig functional(false), timing(true);
    const NpuProgram prog = gemmProgram(normalBase(timing));
    // Let the first K-tile's forced writes claim the rows, then take
    // row 5 away before the accumulating compute.
    NpuProgram first_tile;
    first_tile.code.assign(prog.code.begin(), prog.code.begin() + 4);
    NpuProgram rest;
    rest.code.assign(prog.code.begin() + 4, prog.code.end());
    for (Rig *rig : {&functional, &timing}) {
        ASSERT_TRUE(rig->core->run(0, first_tile).ok());
        rig->core->accumulator().setIdRange(5, 1, World::secure);
    }
    expectSameRun(functional, timing, rest);
    EXPECT_EQ(timing.stat("core0.acc.spad_denied"), 1);
    EXPECT_EQ(timing.stat("core0.acc.spad_reads"), 6);
}

TEST(NpuRangeParity, PartitionedMvinDeniesLikeFunctionalCore)
{
    Rig functional(false), timing(true);
    for (Rig *rig : {&functional, &timing})
        rig->core->scratchpad().setMode(IsolationMode::partition, 8);
    // The normal world owns rows [8, 1024); the first load straddles.
    expectSameRun(functional, timing, gemmProgram(normalBase(timing)));
    EXPECT_EQ(timing.stat("core0.spad.spad_denied"), 1);
}

TEST(NpuRangeParity, InjectedIdMismatchFiresAtTheSameOccurrence)
{
    for (const std::uint64_t nth : {1u, 7u, 20u, 40u}) {
        SCOPED_TRACE("nth " + std::to_string(nth));
        FaultPlan plan;
        FaultSpec spec;
        spec.site = FaultSite::spad_id_mismatch;
        spec.nth = nth;
        plan.faults.push_back(spec);
        FaultInjector f_inj(plan), t_inj(plan);
        Rig functional(false), timing(true);
        functional.core->armFaults(&f_inj);
        timing.core->armFaults(&t_inj);

        expectSameRun(functional, timing,
                      gemmProgram(normalBase(timing)));
        ASSERT_EQ(t_inj.fired().size(), 1u);
        EXPECT_EQ(t_inj.fired()[0].occurrence, nth);
        EXPECT_EQ(f_inj.fired()[0].occurrence, nth);
        EXPECT_EQ(t_inj.occurrences(FaultSite::spad_id_mismatch),
                  f_inj.occurrences(FaultSite::spad_id_mismatch));
    }
}

TEST(NpuRangeParity, UntargetedPlanKeepsPerRowOccurrenceCounts)
{
    // Armed, but at no scratchpad site: the timing core takes the
    // range path and must still count one probe per row read.
    FaultPlan plan;
    FaultSpec spec;
    spec.site = FaultSite::dma_transfer;
    spec.nth = 1000;
    plan.faults.push_back(spec);
    FaultInjector f_inj(plan), t_inj(plan);
    Rig functional(false), timing(true);
    functional.core->armFaults(&f_inj);
    timing.core->armFaults(&t_inj);

    const NpuProgram prog = gemmProgram(normalBase(timing));
    expectSameRun(functional, timing, prog);
    const double row_reads = timing.stat("core0.spad.spad_reads") +
                             timing.stat("core0.acc.spad_reads");
    EXPECT_GT(row_reads, 0);
    for (const FaultSite site :
         {FaultSite::spad_id_mismatch, FaultSite::spad_bit_flip}) {
        EXPECT_EQ(t_inj.occurrences(site), f_inj.occurrences(site));
        EXPECT_EQ(static_cast<double>(t_inj.occurrences(site)),
                  row_reads);
    }
    EXPECT_EQ(t_inj.fireCount(), 0u);
}

TEST(NpuRangeParity, TimingCoreStoresNoScratchpadBytes)
{
    Rig timing(true);
    ASSERT_TRUE(
        timing.core->run(0, gemmProgram(normalBase(timing))).ok());
    EXPECT_FALSE(timing.core->scratchpad().holdsData());
    EXPECT_FALSE(timing.core->accumulator().holdsData());
}

} // namespace
} // namespace snpu
