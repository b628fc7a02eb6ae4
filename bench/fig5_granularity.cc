/**
 * @file
 * Figure 5 reproduction: capability-granularity CDF from a traced run
 * of the openssl s_server analogue (startup, authentication, file
 * exchange), grouped by derivation source.
 */

#include <algorithm>

#include "apps/sslserver.h"
#include "bench_util.h"
#include "trace/analysis.h"

using namespace cheri;
using namespace cheri::apps;

int
main(int argc, char **argv)
try {
    bench::Report rep("fig5_granularity",
                      "Figure 5: cumulative capability count by bounds "
                      "size (mini_s_server)",
                      argc, argv);
    CapTraceRecorder rec;
    SslServerReport report = runSslServer(Abi::CheriAbi, &rec);
    GranularityCdf cdf(rec.all());

    std::vector<std::string> columns = {"size_le", "all"};
    for (DeriveSource s : GranularityCdf::sources) {
        std::string key(deriveSourceName(s)); // "glob relocs": glob_relocs
        std::replace(key.begin(), key.end(), ' ', '_');
        columns.push_back(std::move(key));
    }
    bench::Report::Table &t =
        rep.table("cdf", "Capabilities with bounds <= size_le bytes, by "
                         "source",
                  std::move(columns));
    for (unsigned shift = GranularityCdf::minShift;
         shift <= GranularityCdf::maxShift;
         shift += GranularityCdf::shiftStep) {
        std::vector<bench::Report::Value> row = {u64{1} << shift,
                                                 cdf.cumulativeAll(shift)};
        for (DeriveSource s : GranularityCdf::sources)
            row.emplace_back(cdf.cumulative(s, shift));
        t.row(std::move(row));
    }

    rep.metric("handshake_ok", "handshake completed", report.handshakeOk);
    rep.metric("bytes_served", "bytes served", report.bytesServed);
    rep.metric("derivations", "capability derivations traced", rec.count());
    rep.metric("max_bound_bytes",
               "largest bound, bytes (paper: none > 16 MiB)",
               cdf.maxLengthAll());
    rep.metric("le_1kib_pct", "bounds <= 1 KiB, % (paper: ~90)",
               cdf.fractionBelow(1024) * 100.0);
    rep.metric("max_stack_bytes",
               "largest stack bound, bytes (paper: <= 8 MiB)",
               cdf.maxLength(DeriveSource::Stack));
    rep.metric("max_malloc_bytes",
               "largest malloc bound, bytes (paper: <= 8 MiB)",
               cdf.maxLength(DeriveSource::Malloc));
    rep.note("Paper: the kern and syscall lines lie nearly on the X-axis."
             "\nA legacy mips64 run would be a single vertical line at the "
             "maximum\nuser address: every pointer carries whole-address-"
             "space authority.");
    return rep.finish();
} catch (const std::exception &e) {
    bench::setupFailed("fig5_granularity", e.what());
}
