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

namespace
{

/** Run @p w exactly as Figure 4 does, on a kernel using @p fmt. */
WorkloadResult
runWith(const Workload &w, Abi abi, compress::CapFormat fmt)
{
    KernelConfig cfg;
    cfg.capFormat = fmt;
    return runWorkload(w, abi, cfg);
}

} // namespace

int
main()
{
    bench::banner("Ablation: capability format (cycle overhead vs "
                  "mips64)");
    std::printf("%-24s %12s %12s\n", "benchmark", "cheri-128",
                "cheri-256");
    for (const Workload &w : figure4Workloads()) {
        if (w.name != "network-patricia" && w.name != "auto-qsort" &&
            w.name != "spec2006-xalancbmk" && w.name != "spec2006-astar" &&
            w.name != "auto-basicmath") {
            continue;
        }
        WorkloadResult mips =
            runWith(w, Abi::Mips64, compress::CapFormat::Cap128);
        WorkloadResult c128 =
            runWith(w, Abi::CheriAbi, compress::CapFormat::Cap128);
        WorkloadResult c256 =
            runWith(w, Abi::CheriAbi, compress::CapFormat::Cap256);
        std::printf("%-24s %+11.1f%% %+11.1f%%\n", w.name.c_str(),
                    overheadPct(mips.cycles, c128.cycles),
                    overheadPct(mips.cycles, c256.cycles));
    }

    bench::banner("The compressed format's price: allocation padding");
    std::printf("%-18s %16s %16s\n", "request", "cap128 bounds",
                "cap256 bounds");
    for (u64 want :
         {u64{100}, u64{1} << 14, (u64{1} << 20) + 7,
          (u64{1} << 26) + 4096}) {
        auto bounds = [&](compress::CapFormat fmt) {
            return compress::representableLength(want, fmt);
        };
        std::printf("%-18lu %16lu %16lu\n",
                    static_cast<unsigned long>(want),
                    static_cast<unsigned long>(
                        bounds(compress::CapFormat::Cap128)),
                    static_cast<unsigned long>(
                        bounds(compress::CapFormat::Cap256)));
    }
    bench::note("\nShape: 256-bit capabilities give exact bounds but "
                "double pointer\nfootprint again — the pointer-dense "
                "workloads pay visibly more.");
    return 0;
}
