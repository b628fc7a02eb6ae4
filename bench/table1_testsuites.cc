/**
 * @file
 * Table 1 reproduction: test-suite results under mips64 and CheriABI.
 *
 * Runs the FreeBSD-base, PostgreSQL-pg_regress, and libc++ analogue
 * suites under both ABIs and reports the pass/fail/skip matrix beside
 * the paper's values, plus the CheriABI pg_regress failure causes.
 */

#include "apps/minidb.h"
#include "apps/testsuite.h"
#include "bench_util.h"

using namespace cheri;
using namespace cheri::apps;

int
main(int argc, char **argv)
try {
    bench::Report rep("table1_testsuites", "Table 1: test suite results",
                      argc, argv);
    bench::Report::Table &t =
        rep.table("suites", "Pass/fail/skip per suite and ABI (with the "
                            "paper's)",
                  {"suite", "abi", "pass", "fail", "skip", "total",
                   "paper_pass", "paper_fail", "paper_skip"});
    struct Paper
    {
        u64 pass, fail, skip;
    };
    auto row = [&](const char *suite, const char *abi, const auto &got,
                   Paper paper) {
        t.row({std::string(suite), std::string(abi),
               static_cast<u64>(got.pass), static_cast<u64>(got.fail),
               static_cast<u64>(got.skip), static_cast<u64>(got.total()),
               paper.pass, paper.fail, paper.skip});
    };
    std::vector<RegressCase> cases;
    row("FreeBSD", "mips64", runFreebsdSuite(Abi::Mips64), {3501, 90, 244});
    row("FreeBSD", "cheriabi", runFreebsdSuite(Abi::CheriAbi),
        {3301, 122, 246});
    row("PostgreSQL", "mips64", runPgRegress(Abi::Mips64), {167, 0, 0});
    row("PostgreSQL", "cheriabi", runPgRegress(Abi::CheriAbi, &cases),
        {150, 16, 1});
    row("libc++", "mips64", runLibcxxSuite(Abi::Mips64), {5338, 29, 789});
    row("libc++", "cheriabi", runLibcxxSuite(Abi::CheriAbi),
        {5333, 34, 789});

    bench::Report::Table &causes =
        rep.table("pg_regress_cheriabi_failures",
                  "CheriABI failure causes (pg_regress)",
                  {"test", "outcome", "detail"});
    for (const RegressCase &c : cases) {
        if (c.outcome != RegressCase::Outcome::Pass)
            causes.row({c.name,
                        std::string(c.outcome == RegressCase::Outcome::Fail
                                        ? "fail"
                                        : "skip"),
                        c.detail});
    }
    return rep.finish();
} catch (const std::exception &e) {
    bench::setupFailed("table1_testsuites", e.what());
}
