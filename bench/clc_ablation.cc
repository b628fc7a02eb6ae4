/**
 * @file
 * CLC-immediate ablation (paper section 5.2).
 *
 * The original capability-relative load (CLC) had an immediate too
 * small to reach most GOT entries, costing a 3-instruction sequence
 * per global access.  The paper's ISA extension enlarges the
 * immediate, reducing code size by over 10% and cutting the initdb
 * overhead from 11% to 6.8%.  This bench toggles the feature on the
 * initdb macro-benchmark.
 */

#include "apps/minidb.h"
#include "bench_util.h"

using namespace cheri;
using namespace cheri::apps;

int
main(int argc, char **argv)
try {
    bench::Report rep("clc_ablation",
                      "Ablation: CLC immediate width (initdb)", argc, argv);
    InitdbResult mips = runInitdb(Abi::Mips64);
    InitdbResult small_imm =
        runInitdb(Abi::CheriAbi, {.largeClcImmediate = false});
    InitdbResult large_imm =
        runInitdb(Abi::CheriAbi, {.largeClcImmediate = true});

    bench::Report::Table &t = rep.table(
        "configurations",
        "Per run (cycle overhead vs mips64 in %, with the paper's)",
        {"configuration", "cycles", "instructions", "code_bytes",
         "overhead_pct", "paper_overhead_pct"});
    auto row = [&](const char *name, const InitdbResult &r, double paper) {
        t.row({std::string(name), r.cycles, r.instructions, r.codeBytes,
               overheadPct(mips.cycles, r.cycles), paper});
    };
    row("mips64 baseline", mips, 0.0);
    row("cheriabi, small CLC imm", small_imm, 11.0);
    row("cheriabi, large CLC imm", large_imm, 6.8);

    rep.metric("code_bytes_change_pct",
               "code footprint change, % (paper: < -10)",
               overheadPct(small_imm.codeBytes, large_imm.codeBytes));
    rep.note("The footprint here is dynamically fetched code bytes; the "
             "paper's is\nstatic binary size.");
    return rep.finish();
} catch (const std::exception &e) {
    bench::setupFailed("clc_ablation", e.what());
}
