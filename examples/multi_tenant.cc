/**
 * @file
 * Multi-tenant example: a confidential (secure-world) model and an
 * untrusted (normal-world) model share one NPU core, the motivating
 * scenario of the paper — e.g. face authentication running next to a
 * third-party photo filter on a phone.
 *
 * The example runs the same workload mix under all four isolation
 * policies and prints what each costs, then proves the isolation by
 * attempting a LeftoverLocals read after the secure task finishes.
 *
 * Build & run: ./build/examples/multi_tenant
 */

#include <cstdio>

#include "core/attacks.hh"
#include "core/systems.hh"
#include "serve/core_scheduler.hh"

using namespace snpu;

int
main()
{
    // Background task at tick 0, periodic frames every 300k cycles;
    // both pinned to core 0.
    ExecStream background;
    background.task =
        NpuTask::fromModel(ModelId::mobilenet, World::normal, 0);
    background.task.model = background.task.model.scaled(8);
    background.arrivals = {0};
    background.pinned_core = 0;

    ExecStream periodic;
    periodic.task = NpuTask::fromModel(ModelId::yololite, World::secure, 10);
    periodic.task.model = periodic.task.model.scaled(8);
    for (Tick i = 0; i < 5; ++i)
        periodic.arrivals.push_back(i * 300000);
    periodic.pinned_core = 0;

    std::printf("two tenants on one core: secure %s (periodic) + "
                "normal %s (background)\n\n",
                periodic.task.name.c_str(),
                background.task.name.c_str());

    std::printf("%-24s %12s %14s %16s %12s\n", "policy", "makespan",
                "bg completion", "worst latency", "flush cyc");
    for (SchedPolicy policy :
         {SchedPolicy::flush_fine, SchedPolicy::flush_coarse,
          SchedPolicy::partition, SchedPolicy::id_based}) {
        auto soc = buildSoc(SystemKind::snpu);
        NCoreScheduler sched(*soc, policy, 1, 8);
        NSchedResult res = sched.run({background, periodic});
        if (!res.ok()) {
            std::printf("%s failed: %s\n", schedPolicyName(policy),
                        res.error().c_str());
            return 1;
        }
        std::printf("%-24s %12llu %14llu %16llu %12llu\n",
                    schedPolicyName(policy),
                    static_cast<unsigned long long>(res.makespan),
                    static_cast<unsigned long long>(
                        res.streams[0].completion),
                    static_cast<unsigned long long>(
                        res.streams[1].worst_latency),
                    static_cast<unsigned long long>(
                        res.flush_overhead));
    }

    // The proof that sharing is safe: after the secure task ran, a
    // normal-world tenant tries to read the scratchpad rows it left
    // behind — the LeftoverLocals attack.
    std::printf("\nLeftoverLocals probe after secure execution:\n");
    const std::vector<std::uint8_t> secret = {'f', 'a', 'c', 'e',
                                              '-', 'i', 'd'};
    {
        Soc vulnerable(makeSystem(SystemKind::normal_npu));
        AttackResult res = leftoverLocalsAttack(vulnerable, secret);
        std::printf("  normal NPU : %s (%s)\n",
                    res.blocked ? "blocked" : "SECRET LEAKED",
                    res.detail.c_str());
    }
    {
        Soc snpu(makeSystem(SystemKind::snpu));
        AttackResult res = leftoverLocalsAttack(snpu, secret);
        std::printf("  sNPU       : %s (%s)\n",
                    res.blocked ? "blocked" : "SECRET LEAKED",
                    res.detail.c_str());
    }
    return 0;
}
