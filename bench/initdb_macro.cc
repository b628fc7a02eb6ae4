/**
 * @file
 * The PostgreSQL initdb macro-benchmark (paper section 5.2): CheriABI
 * overhead vs the mips64 baseline, and the AddressSanitizer comparison
 * point (paper: 3.29x cycles with the binary instrumented).
 */

#include "apps/minidb.h"
#include "bench_util.h"

using namespace cheri;
using namespace cheri::apps;

int
main(int argc, char **argv)
try {
    bench::Report rep("initdb_macro", "initdb macro-benchmark", argc, argv);
    InitdbResult mips = runInitdb(Abi::Mips64);
    InitdbResult cheri = runInitdb(Abi::CheriAbi);
    InitdbResult asan = runInitdb(Abi::Mips64, {}, true);

    bench::Report::Table &t = rep.table(
        "configurations", "Per run (cycle ratio to mips64, with the paper's)",
        {"configuration", "instructions", "cycles", "l2_misses",
         "cycle_ratio", "paper_cycle_ratio"});
    auto row = [&](const char *name, const InitdbResult &r, double paper) {
        t.row({std::string(name), r.instructions, r.cycles, r.l2Misses,
               static_cast<double>(r.cycles) /
                   static_cast<double>(mips.cycles),
               paper});
    };
    row("mips64", mips, 1.0);
    row("cheriabi", cheri, 1.068);
    row("mips64+asan", asan, 3.29);

    rep.metric("files_created", "files created per run", mips.filesCreated);
    rep.metric("catalog_rows", "catalog rows per run", mips.catalogRows);
    rep.note("Work done per run: the files and catalog rows above, a "
             "shared-memory\nbuffer pool and TLS backend state.");
    return rep.finish();
} catch (const std::exception &e) {
    bench::setupFailed("initdb_macro", e.what());
}
