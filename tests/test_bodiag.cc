/**
 * @file
 * BOdiagsuite tests: corpus shape, per-regime detection behaviour on
 * representative cases, and the Table 3 headline invariants.
 */

#include <gtest/gtest.h>

#include "bodiag/suite.h"
#include "sanitizer/asan.h"
#include "test_util.h"

namespace cheri::bodiag
{
namespace
{

TEST(BodiagSuite, HasExactly291Cases)
{
    auto suite = generateSuite();
    EXPECT_EQ(suite.size(), 291u);
    // Unique ids.
    std::set<u64> ids;
    for (const auto &c : suite)
        ids.insert(c.id);
    EXPECT_EQ(ids.size(), suite.size());
    // The hard sub-populations exist.
    u64 intra = 0, uninstr = 0, skip = 0, edge = 0, posix = 0;
    for (const auto &c : suite) {
        intra += c.tech == Technique::IntraObject;
        uninstr += c.tech == Technique::Uninstrumented;
        skip += c.tech == Technique::NeighborSkip;
        edge += c.pageEdge;
        posix += c.tech == Technique::PosixGetcwd;
    }
    EXPECT_EQ(intra, 12u) << "the paper's 12 intra-object cases";
    EXPECT_EQ(uninstr, 3u);
    EXPECT_EQ(skip, 2u);
    EXPECT_EQ(edge, 4u);
    EXPECT_EQ(posix, 8u);
}

TEST(BodiagSuite, OkVariantsNeverMisfire)
{
    auto suite = generateSuite();
    // Spot-check a spread of cases in all three modes.
    for (size_t i = 0; i < suite.size(); i += 13) {
        for (Mode m : {Mode::Mips64, Mode::CheriAbi, Mode::Asan}) {
            RunResult r = runCase(suite[i], Magnitude::Ok, m);
            EXPECT_FALSE(r.detected)
                << suite[i].describe() << " under " << modeName(m);
        }
    }
}

TEST(BodiagSuite, CheriCatchesHeapMinOverflow)
{
    BodiagCase c{0, Region::Heap, AccessKind::Write,
                 Technique::DirectIndex, 16};
    EXPECT_TRUE(runCase(c, Magnitude::Min, Mode::CheriAbi).detected);
    EXPECT_FALSE(runCase(c, Magnitude::Min, Mode::Mips64).detected);
    EXPECT_TRUE(runCase(c, Magnitude::Min, Mode::Asan).detected);
}

TEST(BodiagSuite, CheriMissesIntraObjectMin)
{
    BodiagCase c{0, Region::Stack, AccessKind::Write,
                 Technique::IntraObject, 16, 4};
    EXPECT_FALSE(runCase(c, Magnitude::Min, Mode::CheriAbi).detected)
        << "allocation-granularity bounds cannot see intra-object";
    EXPECT_TRUE(runCase(c, Magnitude::Med, Mode::CheriAbi).detected)
        << "med escapes the 4-byte sibling";
    EXPECT_TRUE(runCase(c, Magnitude::Large, Mode::CheriAbi).detected);
    EXPECT_FALSE(runCase(c, Magnitude::Min, Mode::Asan).detected);
}

TEST(BodiagSuite, WideSiblingHidesMedFromCheri)
{
    BodiagCase c{0, Region::Heap, AccessKind::Write,
                 Technique::IntraObject, 16, 16};
    EXPECT_FALSE(runCase(c, Magnitude::Min, Mode::CheriAbi).detected);
    EXPECT_FALSE(runCase(c, Magnitude::Med, Mode::CheriAbi).detected);
    EXPECT_TRUE(runCase(c, Magnitude::Large, Mode::CheriAbi).detected);
}

TEST(BodiagSuite, AsanBlindToUninstrumentedCode)
{
    BodiagCase c{0, Region::Heap, AccessKind::Write,
                 Technique::Uninstrumented, 64};
    for (Magnitude m :
         {Magnitude::Min, Magnitude::Med, Magnitude::Large}) {
        EXPECT_FALSE(runCase(c, m, Mode::Asan).detected)
            << magnitudeName(m);
        EXPECT_TRUE(runCase(c, m, Mode::CheriAbi).detected)
            << magnitudeName(m);
    }
}

TEST(BodiagSuite, AsanMissesRedzoneSkip)
{
    BodiagCase c{0, Region::Heap, AccessKind::Write,
                 Technique::NeighborSkip, 64};
    EXPECT_TRUE(runCase(c, Magnitude::Min, Mode::Asan).detected);
    EXPECT_FALSE(runCase(c, Magnitude::Large, Mode::Asan).detected)
        << "4096 bytes leaps the redzone into a live neighbour";
    EXPECT_TRUE(runCase(c, Magnitude::Large, Mode::CheriAbi).detected);
}

TEST(BodiagSuite, MipsCatchesOnlyPageEdgeAtMin)
{
    BodiagCase edge{0,  Region::Global, AccessKind::Write,
                    Technique::DirectIndex, 32, 0, /*tailGap=*/0,
                    /*pageEdge=*/true};
    EXPECT_TRUE(runCase(edge, Magnitude::Min, Mode::Mips64).detected);
    BodiagCase interior{0, Region::Global, AccessKind::Write,
                        Technique::DirectIndex, 32};
    EXPECT_FALSE(
        runCase(interior, Magnitude::Min, Mode::Mips64).detected);
    EXPECT_TRUE(
        runCase(interior, Magnitude::Large, Mode::Mips64).detected)
        << "4096 bytes crosses out of the data mapping";
}

TEST(BodiagSuite, GetcwdMisuseCaughtByCheriOnly)
{
    BodiagCase c{0, Region::Stack, AccessKind::Write,
                 Technique::PosixGetcwd, 16};
    EXPECT_TRUE(runCase(c, Magnitude::Min, Mode::CheriAbi).detected);
    EXPECT_FALSE(runCase(c, Magnitude::Min, Mode::Mips64).detected)
        << "legacy kernel writes past the real buffer silently";
    EXPECT_TRUE(runCase(c, Magnitude::Min, Mode::Asan).detected)
        << "interceptor checks the claimed range";
}

TEST(BodiagSuite, TlsOverflowCaughtByBlockBounds)
{
    BodiagCase c{0, Region::Tls, AccessKind::Write,
                 Technique::DirectIndex, 32};
    EXPECT_TRUE(runCase(c, Magnitude::Min, Mode::CheriAbi).detected);
    EXPECT_FALSE(runCase(c, Magnitude::Min, Mode::Mips64).detected);
}

// The Table 3 headline, on a fast subset (full corpus runs in bench/).
TEST(BodiagSuite, SubsetOrdering)
{
    auto suite = generateSuite();
    std::vector<BodiagCase> subset;
    for (size_t i = 0; i < suite.size(); i += 7)
        subset.push_back(suite[i]);
    ModeSummary mips = runAll(subset, Mode::Mips64);
    ModeSummary cheri = runAll(subset, Mode::CheriAbi);
    ModeSummary asan = runAll(subset, Mode::Asan);
    EXPECT_EQ(mips.okFailures, 0u);
    EXPECT_EQ(cheri.okFailures, 0u);
    EXPECT_EQ(asan.okFailures, 0u);
    // CheriABI > ASan >> mips64 at min; everyone improves with
    // magnitude; CheriABI catches everything at large.
    EXPECT_GT(cheri.min, mips.min * 5);
    EXPECT_GE(cheri.min, asan.min);
    EXPECT_GE(cheri.med, cheri.min);
    EXPECT_EQ(cheri.large, subset.size());
    EXPECT_LT(mips.min, subset.size() / 4);
    EXPECT_GT(mips.large, mips.med);
}

// AsanRuntime unit behaviour.
TEST(AsanRuntime, DetectsHeapOverflowAndUseAfterFree)
{
    test::TestSystem sys(Abi::Mips64);
    AsanRuntime asan(*sys.ctx);
    GuestPtr p = asan.malloc(32);
    asan.store<u8>(p, 31, 1);
    EXPECT_THROW(asan.store<u8>(p, 32, 1), AsanReport);
    EXPECT_THROW(asan.load<u8>(p, -1), AsanReport);
    asan.free(p);
    EXPECT_THROW(asan.load<u8>(p, 0), AsanReport);
    EXPECT_GT(asan.shadowOverheadBytes(), 0u);
}

TEST(AsanRuntime, RedzonePolicyScalesWithSize)
{
    EXPECT_EQ(AsanRuntime::redzoneFor(16), 16u);
    EXPECT_EQ(AsanRuntime::redzoneFor(256), 64u);
    EXPECT_EQ(AsanRuntime::redzoneFor(2048), 128u);
    EXPECT_EQ(AsanRuntime::redzoneFor(1 << 20), 256u);
}

} // namespace
} // namespace cheri::bodiag
