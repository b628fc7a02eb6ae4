/**
 * @file
 * Ablation: 128-bit compressed vs 256-bit uncompressed capabilities.
 *
 * The paper benchmarks the 128-bit format because "its lower overheads
 * make it a more realistic candidate for commercial adoption"
 * (section 5), at the price of representability padding (footnote 2).
 * This bench quantifies both sides: pointer-dense workloads under both
 * formats, and the allocation padding the compressed format forces.
 */

#include "apps/minidb.h"
#include "apps/workloads.h"
#include "bench_util.h"

using namespace cheri;
using namespace cheri::apps;

int
main(int argc, char **argv)
try {
    bench::Report rep("capformat_ablation",
                      "Ablation: 128-bit compressed vs 256-bit capabilities",
                      argc, argv);
    bench::Report::Table &t =
        rep.table("cycle_overhead", "Cycle overhead vs mips64, %",
                  {"benchmark", "cheri128_pct", "cheri256_pct"});
    for (const Workload &w : figure4Workloads()) {
        if (w.name != "network-patricia" && w.name != "auto-qsort" &&
            w.name != "spec2006-xalancbmk" && w.name != "spec2006-astar" &&
            w.name != "auto-basicmath") {
            continue;
        }
        // Each run boots exactly as Figure 4's does, on a kernel using
        // the given capability format.
        auto run = [&](Abi abi, compress::CapFormat fmt) {
            return runWorkload(w, abi, {.capFormat = fmt});
        };
        WorkloadResult mips = run(Abi::Mips64, compress::CapFormat::Cap128);
        WorkloadResult c128 = run(Abi::CheriAbi, compress::CapFormat::Cap128);
        WorkloadResult c256 = run(Abi::CheriAbi, compress::CapFormat::Cap256);
        t.row({w.name, overheadPct(mips.cycles, c128.cycles),
               overheadPct(mips.cycles, c256.cycles)});
    }

    bench::Report::Table &pad = rep.table(
        "padding", "The compressed format's price: allocation padding",
        {"request", "cap128_bounds", "cap256_bounds"});
    for (u64 want :
         {u64{100}, u64{1} << 14, (u64{1} << 20) + 7,
          (u64{1} << 26) + 4096}) {
        auto bounds = [&](compress::CapFormat fmt) {
            return compress::representableLength(want, fmt);
        };
        pad.row({want, bounds(compress::CapFormat::Cap128),
                 bounds(compress::CapFormat::Cap256)});
    }
    rep.note("Shape: 256-bit capabilities give exact bounds but double "
             "pointer\nfootprint again — the pointer-dense workloads pay "
             "visibly more.");
    return rep.finish();
} catch (const std::exception &e) {
    bench::setupFailed("capformat_ablation", e.what());
}
