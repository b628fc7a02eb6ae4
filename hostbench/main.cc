/**
 * @file
 * hostbench: how fast the simulator produces its results, in host time.
 *
 *   hostbench --workload fig4-hosted|interp-sched|fuzz-replay
 *             [--seed N] [--seconds S] [--trace 0|1]
 *             [--spans FILE] [--plant-failure]
 *
 * Prints notes, the simulated-counter digest and, as its last line,
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * the per-layer ones, from spans kept around the calls into each layer.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench --workload fig4-hosted|interp-sched|"
                 "fuzz-replay [--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans FILE] [--plant-failure]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    hostbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue) {
            opts.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            opts.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (a == "--seconds" && hasValue) {
            opts.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && hasValue) {
            opts.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--spans" && hasValue) {
            opts.spansOut = argv[++i];
        } else if (a == "--plant-failure") {
            opts.plantFailure = true;
        } else {
            return usage();
        }
    }
    if (!(opts.seconds > 0))
        return usage();

    hostbench::Run run(opts);
    try {
        if (opts.workload == "fig4-hosted")
            hostbench::runFig4Hosted(run);
        else if (opts.workload == "interp-sched")
            hostbench::runInterpSched(run);
        else if (opts.workload == "fuzz-replay")
            hostbench::runFuzzReplay(run);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s: %s\n", opts.workload.c_str(),
                     e.what());
        return 1;
    }
    return hostbench::report(run);
}
