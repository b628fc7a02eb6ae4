/**
 * @file
 * Application-level tests: workload harness, MiniPG initdb and
 * regression suite, test-suite analogues, and the s_server analogue.
 */

#include <gtest/gtest.h>

#include "apps/minidb.h"
#include "apps/sslserver.h"
#include "apps/testsuite.h"
#include "apps/workloads.h"
#include "trace/analysis.h"

namespace cheri::apps
{
namespace
{

TEST(Workloads, AllRunUnderBothAbis)
{
    for (const Workload &w : figure4Workloads()) {
        WorkloadResult mips = runWorkload(w, Abi::Mips64);
        WorkloadResult cheri = runWorkload(w, Abi::CheriAbi);
        EXPECT_GT(mips.instructions, 1000u) << w.name;
        EXPECT_GT(cheri.instructions, 1000u) << w.name;
        EXPECT_GE(mips.cycles, mips.instructions) << w.name;
        // Overheads stay within the paper's plotted range (-10..+80%).
        double cyc = overheadPct(mips.cycles, cheri.cycles);
        EXPECT_GT(cyc, -25.0) << w.name;
        EXPECT_LT(cyc, 100.0) << w.name;
    }
}

TEST(Workloads, ShaIsFasterUnderCheriAbi)
{
    const Workload *sha = nullptr;
    for (const Workload &w : figure4Workloads()) {
        if (w.name == "security-sha")
            sha = &w;
    }
    ASSERT_NE(sha, nullptr);
    WorkloadResult mips = runWorkload(*sha, Abi::Mips64);
    WorkloadResult cheri = runWorkload(*sha, Abi::CheriAbi);
    EXPECT_LT(cheri.instructions, mips.instructions)
        << "separate capability register file removes spills";
}

TEST(Workloads, PointerChasingPaysCycles)
{
    for (const Workload &w : figure4Workloads()) {
        if (w.name != "spec2006-xalancbmk" && w.name != "network-patricia")
            continue;
        WorkloadResult mips = runWorkload(w, Abi::Mips64);
        WorkloadResult cheri = runWorkload(w, Abi::CheriAbi);
        EXPECT_GT(cheri.cycles, mips.cycles) << w.name;
        EXPECT_GE(cheri.l2Misses, mips.l2Misses) << w.name;
    }
}

TEST(Workloads, AluKernelsAreWithinNoise)
{
    for (const Workload &w : figure4Workloads()) {
        if (w.name != "auto-basicmath" && w.name != "telco-adpcm-enc")
            continue;
        WorkloadResult mips = runWorkload(w, Abi::Mips64);
        WorkloadResult cheri = runWorkload(w, Abi::CheriAbi);
        double pct = overheadPct(mips.cycles, cheri.cycles);
        EXPECT_LT(std::abs(pct), 10.0) << w.name << " " << pct << "%";
    }
}

// --- Figure 4 counter pins ---
//
// Simulated counters are the paper's currency: host-time work on the
// cost model, caches or memory path must leave every one of them
// bit-identical.  The constants below are the instructions, cycles, L2
// misses and code bytes of every Figure 4 kernel under both ABIs at one
// fixed ASLR slide (folded into an FNV-1a digest), plus initdb under
// mips64, CheriABI and ASan.  A pin that moves means a simulated number
// moved: say which and why, then re-pin.

constexpr u64 pinFig4Slide = 1000;
constexpr u64 pinFig4Fnv = 8620639773456737674ULL;
constexpr u64 pinXalanCheriCycles = 765897;
constexpr u64 pinXalanCheriL2Misses = 5659;

struct InitdbPin
{
    u64 instructions, cycles, l2Misses, codeBytes;
};
constexpr InitdbPin pinInitdbMips{480833, 1018133, 6079, 1923332};
constexpr InitdbPin pinInitdbCheri{490479, 1097569, 6691, 1961916};
constexpr InitdbPin pinInitdbAsan{2599315, 3378405, 8512, 10397260};

u64
fnv1aWords(std::initializer_list<u64> words, u64 h)
{
    for (u64 w : words) {
        for (int i = 0; i < 8; ++i) {
            h ^= (w >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

void
expectInitdbPin(const InitdbResult &r, const InitdbPin &pin,
                const char *what)
{
    EXPECT_EQ(r.instructions, pin.instructions) << what;
    EXPECT_EQ(r.cycles, pin.cycles) << what;
    EXPECT_EQ(r.l2Misses, pin.l2Misses) << what;
    EXPECT_EQ(r.codeBytes, pin.codeBytes) << what;
}

TEST(Fig4CounterPin, KernelCountersBothAbis)
{
    u64 h = 1469598103934665603ULL;
    u64 xalanCycles = 0, xalanL2 = 0;
    for (const Workload &w : figure4Workloads()) {
        for (Abi abi : {Abi::Mips64, Abi::CheriAbi}) {
            WorkloadResult r = runWorkload(w, abi, {}, pinFig4Slide);
            h = fnv1aWords(
                {r.instructions, r.cycles, r.l2Misses, r.codeBytes}, h);
            if (w.name == "spec2006-xalancbmk" && abi == Abi::CheriAbi) {
                xalanCycles = r.cycles;
                xalanL2 = r.l2Misses;
            }
        }
    }
    EXPECT_EQ(xalanCycles, pinXalanCheriCycles);
    EXPECT_EQ(xalanL2, pinXalanCheriL2Misses);
    EXPECT_EQ(h, pinFig4Fnv);
}

TEST(Fig4CounterPin, InitdbCounters)
{
    expectInitdbPin(runInitdb(Abi::Mips64), pinInitdbMips, "mips64");
    expectInitdbPin(runInitdb(Abi::CheriAbi), pinInitdbCheri, "CheriABI");
    expectInitdbPin(runInitdb(Abi::Mips64, {}, true), pinInitdbAsan,
                    "ASan");
}

TEST(MiniDb, InitdbRunsUnderBothAbis)
{
    InitdbResult mips = runInitdb(Abi::Mips64);
    InitdbResult cheri = runInitdb(Abi::CheriAbi);
    EXPECT_EQ(mips.filesCreated, cheri.filesCreated);
    EXPECT_GE(mips.filesCreated, 13u);
    EXPECT_EQ(mips.catalogRows, cheri.catalogRows);
    double pct = overheadPct(mips.cycles, cheri.cycles);
    // Paper: 6.8% with the large CLC immediate; allow a generous band.
    EXPECT_GT(pct, 0.0);
    EXPECT_LT(pct, 30.0);
}

TEST(MiniDb, ClcImmediateAblation)
{
    InitdbResult mips = runInitdb(Abi::Mips64);
    InitdbResult small_imm =
        runInitdb(Abi::CheriAbi, {.largeClcImmediate = false});
    InitdbResult large_imm =
        runInitdb(Abi::CheriAbi, {.largeClcImmediate = true});
    double small_pct = overheadPct(mips.cycles, small_imm.cycles);
    double large_pct = overheadPct(mips.cycles, large_imm.cycles);
    EXPECT_GT(small_pct, large_pct)
        << "the large CLC immediate must reduce the initdb overhead";
    EXPECT_GT(small_imm.codeBytes, large_imm.codeBytes)
        << "and shrink the code";
}

TEST(MiniDb, AsanCostsMultiples)
{
    InitdbResult plain = runInitdb(Abi::Mips64);
    InitdbResult asan = runInitdb(Abi::Mips64, {}, true);
    double ratio = static_cast<double>(asan.cycles) /
                   static_cast<double>(plain.cycles);
    // Paper: 3.29x for ASan-instrumented initdb.
    EXPECT_GT(ratio, 2.0);
    EXPECT_LT(ratio, 6.0);
}

TEST(MiniDb, PgRegressMatchesTable1Shape)
{
    RegressTotals mips = runPgRegress(Abi::Mips64);
    EXPECT_EQ(mips.total(), 167);
    EXPECT_EQ(mips.fail, 0);
    EXPECT_EQ(mips.skip, 0);
    std::vector<RegressCase> cases;
    RegressTotals cheri = runPgRegress(Abi::CheriAbi, &cases);
    EXPECT_EQ(cheri.total(), 167);
    EXPECT_EQ(cheri.pass, 150);
    EXPECT_EQ(cheri.fail, 16);
    EXPECT_EQ(cheri.skip, 1);
    // The under-aligned-pointer failure is among them.
    bool saw_underaligned = false;
    for (const RegressCase &c : cases) {
        if (c.name == "underaligned_tuple_ptr")
            saw_underaligned = c.outcome == RegressCase::Outcome::Fail;
    }
    EXPECT_TRUE(saw_underaligned);
}

TEST(TestSuites, FreebsdSuiteMatchesTable1Shape)
{
    SuiteTotals mips = runFreebsdSuite(Abi::Mips64);
    SuiteTotals cheri = runFreebsdSuite(Abi::CheriAbi);
    EXPECT_EQ(mips.pass, 3501);
    EXPECT_EQ(mips.fail, 90);
    EXPECT_EQ(mips.skip, 244);
    EXPECT_EQ(mips.total(), 3835);
    EXPECT_EQ(cheri.pass, 3301);
    EXPECT_EQ(cheri.fail, 122);
    EXPECT_EQ(cheri.skip, 246);
    EXPECT_EQ(cheri.total(), 3669);
}

TEST(TestSuites, LibcxxSuiteMatchesTable1Shape)
{
    SuiteTotals mips = runLibcxxSuite(Abi::Mips64);
    SuiteTotals cheri = runLibcxxSuite(Abi::CheriAbi);
    EXPECT_EQ(mips.pass, 5338);
    EXPECT_EQ(mips.fail, 29);
    EXPECT_EQ(mips.skip, 789);
    EXPECT_EQ(cheri.pass, 5333);
    EXPECT_EQ(cheri.fail, 34);
    EXPECT_EQ(cheri.skip, 789);
    EXPECT_EQ(cheri.fail - mips.fail, 5)
        << "five extra failures from the missing atomics runtime";
}

TEST(SslServer, ServesFileUnderBothAbis)
{
    for (Abi abi : {Abi::Mips64, Abi::CheriAbi}) {
        SslServerReport r = runSslServer(abi);
        EXPECT_TRUE(r.handshakeOk);
        EXPECT_GT(r.bytesServed, 1000u);
        EXPECT_GE(r.allocations, 5u);
    }
}

TEST(SslServer, TraceCoversAllSourcesAndIsGranular)
{
    CapTraceRecorder rec;
    SslServerReport r = runSslServer(Abi::CheriAbi, &rec);
    ASSERT_TRUE(r.handshakeOk);
    GranularityCdf cdf(rec.all());
    // All Figure 5 sources present.
    EXPECT_GT(cdf.total(DeriveSource::Stack), 0u);
    EXPECT_GT(cdf.total(DeriveSource::Malloc), 0u);
    EXPECT_GT(cdf.total(DeriveSource::Exec), 0u);
    EXPECT_GT(cdf.total(DeriveSource::GlobRelocs), 0u);
    EXPECT_GT(cdf.total(DeriveSource::Syscall), 0u);
    EXPECT_GT(cdf.total(DeriveSource::Kern), 0u);
    EXPECT_GT(cdf.total(DeriveSource::Tls), 0u);
    // Paper headlines: no capability over 16 MiB; most are small;
    // stack and malloc capabilities stay tightly bounded.
    EXPECT_LE(cdf.maxLengthAll(), u64{16} << 20);
    EXPECT_GT(cdf.fractionBelow(1024), 0.5);
    EXPECT_LE(cdf.maxLength(DeriveSource::Stack), u64{8} << 20);
    EXPECT_LE(cdf.maxLength(DeriveSource::Malloc), u64{8} << 20);
}

} // namespace
} // namespace cheri::apps
