/**
 * @file
 * ctest wrapper around the differential ABI fuzzer and its invariant
 * oracle (src/check).  The fixed seed corpus keeps a small slice of the
 * fuzzer's search space in every CI run; CHERI_TEST_FUZZ_SEEDS widens
 * or pins it without a rebuild.  The oracle tests prove the checker is
 * not vacuous: a deliberately planted slot-refcount corruption and a
 * hand-built slot leak must both be reported, with seed-reproducible
 * output for the fuzzer-driven one.
 */

#include <gtest/gtest.h>

#include "check/diff_fuzzer.h"
#include "check/invariants.h"
#include "obs/metrics.h"
#include "rng_util.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

// --- differential corpus -------------------------------------------------

class DiffFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DiffFuzz, SeededCorpusAgreesAcrossAbisWithCleanOracle)
{
    CHERI_TRACE_SEED(GetParam(), "CHERI_TEST_FUZZ_SEEDS");
    check::FuzzOptions opts;
    opts.seed = GetParam();
    opts.cases = 6;
    opts.opsPerCase = 24;
    opts.checkEvery = 1;
    obs::Metrics m;
    check::DiffFuzzer fuzzer(opts);
    fuzzer.setMetrics(&m);
    check::FuzzReport rep = fuzzer.run();
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.casesRun, opts.cases);
    EXPECT_GT(rep.syscalls, 0u);
    EXPECT_GT(rep.oracleRuns, 0u) << "the oracle must actually run";
    EXPECT_EQ(m.check().fuzzCases, opts.cases);
    EXPECT_EQ(m.check().fuzzDivergences, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DiffFuzz,
    ::testing::ValuesIn(test::seedsFromEnv("CHERI_TEST_FUZZ_SEEDS", 3)));

// Fault-injected runs skip the differential comparison by design (the
// two ABIs hit periodic schedules at different points), but the kernel
// invariants must hold on every injected path.
TEST(DiffFuzzInject, InjectedRunsKeepInvariantsClean)
{
    check::FuzzOptions opts;
    opts.seed = 1;
    opts.cases = 6;
    opts.opsPerCase = 24;
    opts.checkEvery = 1;
    opts.inject = true;
    check::FuzzReport rep = check::DiffFuzzer(opts).run();
    EXPECT_EQ(rep.violationCount, 0u) << rep.summary();
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

// --- the oracle is not vacuous -------------------------------------------

TEST(DiffFuzzOracle, PlantedSlotRefcountBugIsCaughtAndReproducible)
{
    check::FuzzOptions opts;
    opts.seed = 1;
    opts.cases = 3;
    opts.opsPerCase = 24;
    opts.checkEvery = 1;
    opts.plantSlotBug = true;
    check::FuzzReport rep = check::DiffFuzzer(opts).run();
    EXPECT_FALSE(rep.ok());
    EXPECT_GT(rep.violationCount, 0u);
    bool slot_rule = false;
    for (const check::CaseReport &c : rep.failures)
        for (const check::Violation &v : c.violations)
            slot_rule |= v.rule == "slot-refcount";
    EXPECT_TRUE(slot_rule)
        << "the corruption must be attributed to the slot-refcount "
           "rule:\n"
        << rep.summary();
    EXPECT_NE(rep.summary().find("reproduce: abi_fuzz --seed 1"),
              std::string::npos)
        << "failures must carry a reproduction command";
}

TEST(DiffFuzzOracle, CleanBootedSystemPassesAndRecordsTelemetry)
{
    TestSystem sys(Abi::CheriAbi);
    obs::Metrics m;
    sys.kern.setMetrics(&m);
    check::Report rep = check::Invariants::check(sys.kern);
    EXPECT_TRUE(rep.ok()) << rep.toString();
    EXPECT_GE(rep.processes, 1u);
    EXPECT_GT(rep.capsChecked, 0u);
    EXPECT_GT(rep.pagesChecked, 0u);
    EXPECT_EQ(m.check().oracleRuns, 1u);
    EXPECT_EQ(m.check().oracleViolations, 0u);
    std::string json = m.toJson();
    EXPECT_NE(json.find("cheri.metrics.v9"), std::string::npos);
    EXPECT_NE(json.find("\"oracle_runs\":1"), std::string::npos);
    sys.kern.setMetrics(nullptr);
}

TEST(DiffFuzzOracle, HandPlantedExtraSlotRefIsReported)
{
    TestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    GuestPtr buf = ctx.mmap(pageSize);
    ctx.store<u64>(buf, 0, 1);
    ASSERT_TRUE(
        sys.proc->as().swapOutPage(buf.addr() & ~(pageSize - 1)));
    // Corrupt the accounting below the syscall layer: one extra device
    // reference no PTE will ever drop.
    u64 slot = ~u64{0};
    sys.kern.swapDevice().forEachSlot(
        [&](u64 id, u64) { slot = std::min(slot, id); });
    ASSERT_NE(slot, ~u64{0});
    sys.kern.swapDevice().retain(slot);

    check::Report rep = check::Invariants::check(sys.kern);
    EXPECT_FALSE(rep.ok());
    bool found = false;
    for (const check::Violation &v : rep.violations)
        found |= v.rule == "slot-refcount";
    EXPECT_TRUE(found) << rep.toString();
    // Clean up so teardown's slot accounting stays balanced.
    sys.kern.swapDevice().discard(slot);
}

} // namespace
} // namespace cheri
