/**
 * @file
 * Figure 4 reproduction: MiBench and SPEC CPU2006 workload overheads
 * of pure-capability (CheriABI) execution relative to the mips64
 * baseline — instructions, cycles, and L2 misses — plus the
 * initdb-dynamic macro-benchmark.
 *
 * Like the paper, each point is a median over repeated runs with an
 * interquartile range: run-to-run variation comes from ASLR (each run
 * gets a different address-space slide, perturbing cache behaviour).
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include "apps/minidb.h"
#include "apps/workloads.h"
#include "bench_util.h"

using namespace cheri;
using namespace cheri::apps;

namespace
{

constexpr int numRuns = 5;

struct Series
{
    WorkloadResult median;
    double cycleIqrPct = 0; // IQR of cycles as % of the median
};

Series
runSeries(const Workload &w, Abi abi)
{
    std::vector<WorkloadResult> runs;
    for (int i = 0; i < numRuns; ++i)
        runs.push_back(runWorkload(w, abi, {}, 1000 + i * 7));
    std::sort(runs.begin(), runs.end(),
              [](const WorkloadResult &a, const WorkloadResult &b) {
                  return a.cycles < b.cycles;
              });
    Series s;
    s.median = runs[numRuns / 2];
    u64 q1 = runs[numRuns / 4].cycles;
    u64 q3 = runs[(3 * numRuns) / 4].cycles;
    s.cycleIqrPct = 100.0 * static_cast<double>(q3 - q1) /
                    static_cast<double>(s.median.cycles);
    return s;
}

} // namespace

int
main(int argc, char **argv)
try {
    bench::Report rep("fig4_workloads",
                      "Figure 4: CheriABI overhead vs mips64 baseline",
                      argc, argv);
    bench::Report::Table &t = rep.table(
        "overheads",
        "Overhead in % (median of 5 ASLR seeds; cycle_iqr_pct = the "
        "larger ABI's cycle IQR, the error bar)",
        {"benchmark", "instr_pct", "cycles_pct", "l2_miss_pct",
         "cycle_iqr_pct"});
    double othersMaxAbsCycles = 0;
    double largestCycles = -100; // no overhead is below -100%
    std::string largest;
    for (const Workload &w : figure4Workloads()) {
        Series m = runSeries(w, Abi::Mips64);
        Series c = runSeries(w, Abi::CheriAbi);
        double cycles = overheadPct(m.median.cycles, c.median.cycles);
        double l2 = overheadPct(m.median.l2Misses, c.median.l2Misses);
        t.row({w.name,
               overheadPct(m.median.instructions, c.median.instructions),
               cycles, l2, std::max(m.cycleIqrPct, c.cycleIqrPct)});
        // The pointer-dense kernels pay for 128-bit pointers; every
        // other kernel stays within noise.
        if (w.name == "auto-qsort" || w.name == "network-patricia" ||
            w.name == "spec2006-astar" || w.name == "spec2006-xalancbmk")
            rep.require(w.name + "_l2_miss_over_10pct", l2 > 10.0);
        else
            othersMaxAbsCycles = std::max(othersMaxAbsCycles,
                                          std::abs(cycles));
        if (w.name == "security-sha")
            rep.require("security-sha_faster", cycles < 0);
        if (cycles > largestCycles) {
            largest = w.name;
            largestCycles = cycles;
        }
    }
    rep.atMost("others_max_abs_cycles_pct", othersMaxAbsCycles, 10.0);
    rep.require("xalancbmk_largest_cycles", largest == "spec2006-xalancbmk");

    // initdb-dynamic: the dynamically linked macro-benchmark, one run.
    InitdbResult im = runInitdb(Abi::Mips64);
    InitdbResult ic = runInitdb(Abi::CheriAbi);
    t.row({std::string("initdb-dynamic"),
           overheadPct(im.instructions, ic.instructions),
           overheadPct(im.cycles, ic.cycles),
           overheadPct(im.l2Misses, ic.l2Misses)});

    rep.note("Paper (Figure 4) shape: most benchmarks within noise "
             "(+-10%);\npointer-dense workloads (patricia, astar, "
             "xalancbmk, qsort) pay\ncycles and L2 misses for 128-bit "
             "pointers; security-sha is *faster*\nunder CheriABI "
             "(separate capability register file); initdb-dynamic\n~= "
             "+6.8% cycles.");
    return rep.finish();
} catch (const std::exception &e) {
    bench::setupFailed("fig4_workloads", e.what());
}
