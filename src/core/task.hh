/**
 * @file
 * An ML task as the driver/scheduler sees it: a model, a security
 * world, and the compiled program once lowered for a particular
 * scratchpad budget.
 */

#ifndef SNPU_CORE_TASK_HH
#define SNPU_CORE_TASK_HH

#include <cstdint>
#include <string>

#include "npu/isa.hh"
#include "sim/status.hh"
#include "sim/types.hh"
#include "workload/layer.hh"
#include "workload/model_zoo.hh"

namespace snpu
{

/**
 * Shared base of every end-to-end execution outcome (single run,
 * schedule, pipeline, serving window, fleet). Gives all of
 * them one shape — a Status plus the total simulated cycles — so
 * layered tooling can report any of them uniformly.
 *
 * The default status is an error: an outcome is only meaningful once
 * the producing code explicitly marked it ok, so early returns that
 * fill in nothing but a failure status stay correct.
 */
struct ExecOutcome
{
    Status status = Status::internal("not run");
    /** Total simulated cycles of the whole operation. */
    Tick cycles = 0;

    bool ok() const { return status.isOk(); }
    StatusCode code() const { return status.code(); }
    const std::string &error() const { return status.message(); }
};

/** One inference task. */
struct NpuTask
{
    std::string name;
    ModelSpec model;
    World world = World::normal;
    /** Relative priority for the scheduler (higher runs first). */
    int priority = 0;

    static NpuTask
    fromModel(ModelId id, World world = World::normal, int priority = 0)
    {
        NpuTask task;
        task.name = modelName(id);
        task.model = makeModel(id);
        task.world = world;
        task.priority = priority;
        return task;
    }
};

} // namespace snpu

#endif // SNPU_CORE_TASK_HH
