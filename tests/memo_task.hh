/**
 * @file
 * Test helper: run one task on tile 0 of a SoC, live or through a
 * MemoizedExec. TaskRunner always runs live, so the timing-cache
 * tests that compare a cache-off run against a miss and a hit drive
 * MemoizedExec::run directly, on a task prepared the way
 * TaskRunner::run prepares it.
 */

#ifndef SNPU_TESTS_MEMO_TASK_HH
#define SNPU_TESTS_MEMO_TASK_HH

#include <gtest/gtest.h>

#include "core/soc.hh"
#include "core/task.hh"
#include "core/task_runner.hh"
#include "core/timing_cache.hh"
#include "workload/compiler.hh"

namespace snpu
{

/**
 * Compile @p task for its world's scratchpad budget, provision its
 * window on tile 0, put the tile in the task's world, and run it at
 * tick 0: live when @p memo is null, else through @p memo.
 * @return the run's cycles.
 */
inline Tick
runTaskOnTile0(Soc &soc, const NpuTask &task, MemoizedExec *memo)
{
    const AddrRange &arena = soc.mem().map().npuArena(task.world);
    const Addr va_base = arena.base + arena.size / 2;
    Addr footprint = 0;
    const NpuProgram program =
        TilingCompiler(TaskRunner(soc).compilerParams(task.world))
            .compileModel(task.model, va_base, &footprint);
    EXPECT_TRUE(soc.protection(0)
                    .beginContext(ProtectionContext{va_base, va_base,
                                                    footprint,
                                                    task.world},
                                  true)
                    .isOk());
    EXPECT_TRUE(soc.npu().setCoreWorld(0, task.world, true));
    const ExecOptions eo;
    const ExecResult res =
        memo ? memo->run(0, 0, program, eo, va_base, footprint)
             : soc.npu().core(0).run(0, program, eo);
    EXPECT_TRUE(res.ok()) << res.error();
    return res.cycles();
}

} // namespace snpu

#endif // SNPU_TESTS_MEMO_TASK_HH
