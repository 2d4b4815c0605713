/**
 * @file
 * snpu_bench — the repository benchmark. One process, one host thread.
 *
 *   snpu_bench --workload NAME --seed N --seconds S --trace 0|1
 *              [--trace-out FILE] [--smoke]
 *   snpu_bench --list-metrics
 *   snpu_bench --selftest          (smoke size, every workload)
 *
 * Workloads: paper_sweep, serve_warm, llm_faults. The last stdout line
 * is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hh"
#include "metrics.hh"
#include "workloads.hh"

using namespace snpubench;

namespace snpubench
{

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    if (name == "paper_sweep")
        return makePaperSweep(seed, smoke);
    if (name == "serve_warm")
        return makeServeWarm(seed, smoke);
    if (name == "llm_faults")
        return makeLlmFaults(seed, smoke);
    return nullptr;
}

} // namespace snpubench

namespace
{

void
listMetrics()
{
    const auto print = [](const char *key,
                          const std::vector<MetricDef> &defs) {
        std::printf("\"%s\": [", key);
        for (std::size_t i = 0; i < defs.size(); ++i)
            std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", "
                        "\"better\": \"%s\"}",
                        i ? ", " : "", defs[i].name, defs[i].unit,
                        defs[i].better);
        std::printf("]");
    };
    std::printf("{");
    print("end_to_end", endToEndMetrics());
    std::printf(", ");
    print("per_layer", perLayerMetrics());
    std::printf("}\n");
}

/**
 * Two in-process invocations of each workload at smoke size must give
 * equal digests (set-up plus one pass, on fresh SoCs each time).
 */
int
selftest()
{
    int bad = 0;
    for (const char *name : {"paper_sweep", "serve_warm", "llm_faults"}) {
        std::uint64_t digest[2] = {0, 0};
        for (std::uint64_t &d : digest) {
            auto w = makeWorkload(name, 7, true);
            Counters discard;
            Probe probe{nullptr, &discard};
            w->setup(probe);
            d = passDigest(*w);
        }
        const bool same = digest[0] == digest[1];
        std::printf("selftest %-12s digest %016llx %s\n", name,
                    static_cast<unsigned long long>(digest[0]),
                    same ? "repeatable" : "DIFFERS");
        bad += same ? 0 : 1;
    }
    return bad ? 1 : 0;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (!(v = value()))
            return false;
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (!(o.seconds > 0))
                return false;
        } else if (a == "--trace") {
            o.trace = std::strtol(v, &end, 10) != 0;
        } else if (a == "--trace-out") {
            o.trace_out = v;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return !o.workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
        listMetrics();
        return 0;
    }
    if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0)
        return selftest();

    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        std::fprintf(stderr,
                     "usage: snpu_bench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--trace-out FILE] "
                     "[--smoke]\n");
        return 2;
    }
    auto w = makeWorkload(opts.workload, opts.seed, opts.smoke);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s' (paper_sweep, "
                             "serve_warm, llm_faults)\n",
                     opts.workload.c_str());
        return 2;
    }
    return runBenchmark(*w, opts);
}
