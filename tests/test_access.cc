/**
 * @file
 * Tests for the unified memory-access path (mem/access.h): software-TLB
 * coherence across every invalidation source, tag preservation through
 * the fast path, decode-generation behavior, the page-chunked string
 * reader, and the kernel-level consumers (copyinstr, fork).
 */

#include <gtest/gtest.h>

#include "mem/access.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace cheri
{
namespace
{

class AccessTest : public ::testing::Test
{
  protected:
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as{phys, swap, 1};
    MemAccess mem{as};
    u64 tlb[numTlbCounters] = {};

    AccessTest() { mem.setCounterBlock(tlb); }

    u64
    mapAnon(u64 len, u32 prot = PROT_READ | PROT_WRITE)
    {
        u64 va = as.map(0, len, prot, MappingKind::Data);
        EXPECT_NE(va, 0u);
        return va;
    }

    /** Prime the dTLB entry for @p va with one read. */
    void
    prime(u64 va)
    {
        u8 b = 0;
        ASSERT_FALSE(mem.read(va, &b, 1).has_value());
    }
};

TEST_F(AccessTest, HitAfterMissMatchesWalkPath)
{
    u64 va = mapAnon(pageSize);
    u64 v = 0x1122334455667788;
    ASSERT_FALSE(mem.write(va + 64, &v, 8).has_value());

    u64 via_tlb = 0, via_walk = 0;
    ASSERT_FALSE(mem.read(va + 64, &via_tlb, 8).has_value());
    ASSERT_FALSE(as.readBytes(va + 64, &via_walk, 8).has_value());
    EXPECT_EQ(via_tlb, v);
    EXPECT_EQ(via_walk, v);

    // The second access to the same page must be a hit.
    u64 misses = tlb[TlbDataMiss];
    ASSERT_FALSE(mem.read(va + 128, &via_tlb, 8).has_value());
    EXPECT_EQ(tlb[TlbDataMiss], misses);
    EXPECT_GT(tlb[TlbDataHit], 0u);
}

TEST_F(AccessTest, UnmapInvalidatesCachedTranslation)
{
    u64 va = mapAnon(pageSize);
    prime(va);
    ASSERT_TRUE(as.unmap(va, pageSize));
    u8 b = 0;
    EXPECT_TRUE(mem.read(va, &b, 1).has_value());
}

TEST_F(AccessTest, RemapAfterUnmapServesTheNewFrame)
{
    u64 va = mapAnon(pageSize);
    u64 marker = 0xDEAD;
    ASSERT_FALSE(mem.write(va, &marker, 8).has_value());
    ASSERT_TRUE(as.unmap(va, pageSize));
    ASSERT_EQ(as.map(va, pageSize, PROT_READ | PROT_WRITE,
                     MappingKind::Data, /*fixed=*/true),
              va);
    // A stale TLB entry would resurrect the old frame's contents; the
    // fresh mapping must read demand-zero.
    u64 got = ~u64{0};
    ASSERT_FALSE(mem.read(va, &got, 8).has_value());
    EXPECT_EQ(got, 0u);
}

TEST_F(AccessTest, MprotectDropsCachedWritePermission)
{
    u64 va = mapAnon(pageSize);
    u64 v = 1;
    ASSERT_FALSE(mem.write(va, &v, 8).has_value()); // cached writable
    ASSERT_TRUE(as.protect(va, pageSize, PROT_READ));
    EXPECT_TRUE(mem.write(va, &v, 8).has_value());
    // Reads still work, and re-enabling write restores the fast path.
    ASSERT_FALSE(mem.read(va, &v, 8).has_value());
    ASSERT_TRUE(as.protect(va, pageSize, PROT_READ | PROT_WRITE));
    EXPECT_FALSE(mem.write(va, &v, 8).has_value());
}

TEST_F(AccessTest, ForkCowNeverWritesTheSharedFrame)
{
    u64 va = mapAnon(pageSize);
    u64 before = 0xAAAA;
    ASSERT_FALSE(mem.write(va, &before, 8).has_value());

    std::unique_ptr<AddressSpace> child = as.forkCopy(2);
    MemAccess child_mem(*child);

    // The parent's cached writable entry was invalidated by forkCopy;
    // this write must COW-copy, not scribble on the shared frame.
    u64 after = 0xBBBB;
    ASSERT_FALSE(mem.write(va, &after, 8).has_value());

    u64 parent_sees = 0, child_sees = 0;
    ASSERT_FALSE(mem.read(va, &parent_sees, 8).has_value());
    ASSERT_FALSE(child_mem.read(va, &child_sees, 8).has_value());
    EXPECT_EQ(parent_sees, after);
    EXPECT_EQ(child_sees, before);
}

TEST_F(AccessTest, SwapOutInvalidatesAndSwapInPreservesData)
{
    u64 va = mapAnon(pageSize);
    u64 v = 0x5A5A5A5A;
    ASSERT_FALSE(mem.write(va, &v, 8).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    // The TLB held a raw Frame*; the frame is gone.  The next access
    // must miss, swap the page back in, and see the same bytes.
    u64 got = 0;
    ASSERT_FALSE(mem.read(va, &got, 8).has_value());
    EXPECT_EQ(got, v);
}

TEST_F(AccessTest, SwapRoundTripPreservesTagsThroughFastPath)
{
    u64 va = mapAnon(pageSize);
    Capability c = as.capForRange(va, pageSize, PROT_READ | PROT_WRITE);
    ASSERT_TRUE(c.tag());
    ASSERT_FALSE(mem.writeCap(va + capSize, c).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    Result<Capability> r = mem.readCap(va + capSize);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().tag());
    EXPECT_EQ(r.value(), c);
    EXPECT_EQ(as.verifyCapContainment(), 0u);
}

TEST_F(AccessTest, InstallFrameReplacesCachedTranslation)
{
    u64 va = mapAnon(pageSize);
    u64 old = 0x11;
    ASSERT_FALSE(mem.write(va, &old, 8).has_value());

    FrameRef shared = phys.allocFrame();
    u64 pattern = 0x77;
    shared->write(0, &pattern, 8);
    ASSERT_TRUE(as.installFrame(va, shared));

    u64 got = 0;
    ASSERT_FALSE(mem.read(va, &got, 8).has_value());
    EXPECT_EQ(got, pattern);
}

TEST_F(AccessTest, RevocationSweepIsVisibleThroughTheTlb)
{
    u64 va = mapAnon(pageSize);
    Capability c = as.capForRange(va, 64, PROT_READ | PROT_WRITE);
    ASSERT_FALSE(mem.writeCap(va, c).has_value());
    // Prime the read path so a stale cached view would be tempting.
    ASSERT_TRUE(mem.readCap(va).ok());
    u64 cleared = as.revokeCapsInRange(va, va + 64);
    EXPECT_GE(cleared, 1u);
    Result<Capability> r = mem.readCap(va);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().tag());
}

TEST_F(AccessTest, CapRoundTripIsBitForBitOnTheHitPath)
{
    u64 va = mapAnon(pageSize);
    Capability c = as.capForRange(va + 256, 128, PROT_READ | PROT_WRITE);
    ASSERT_FALSE(mem.writeCap(va + 16, c).has_value());
    // First read may miss; second is guaranteed to hit.
    ASSERT_TRUE(mem.readCap(va + 16).ok());
    Result<Capability> r = mem.readCap(va + 16);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), c);
    EXPECT_TRUE(r.value().tag());
    EXPECT_EQ(r.value().base(), c.base());
    EXPECT_EQ(r.value().length(), c.length());
    EXPECT_EQ(r.value().perms(), c.perms());
    EXPECT_EQ(as.verifyCapContainment(), 0u);
}

TEST_F(AccessTest, ByteWriteThroughFastPathClearsTags)
{
    u64 va = mapAnon(pageSize);
    Capability c = as.capForRange(va, 64, PROT_READ | PROT_WRITE);
    ASSERT_FALSE(mem.writeCap(va, c).has_value());
    u8 junk = 0xFF;
    ASSERT_FALSE(mem.write(va + 3, &junk, 1).has_value());
    Result<Capability> r = mem.readCap(va);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().tag());
}

TEST_F(AccessTest, FetchGenerationBumpsOnWritesToExecutablePages)
{
    u64 text = as.map(0, pageSize, PROT_READ | PROT_WRITE | PROT_EXEC,
                      MappingKind::Text);
    ASSERT_NE(text, 0u);
    u64 insn = 0;
    ASSERT_FALSE(mem.fetch(text, &insn, 8).has_value());
    u64 gen = mem.fetchGen();

    // Store to the executable page through the fast path: generation
    // must advance so decode caches re-fetch.
    u64 patched = 42;
    ASSERT_FALSE(mem.write(text, &patched, 8).has_value());
    EXPECT_GT(mem.fetchGen(), gen);

    // The same must hold for a store issued via the walk path (another
    // actor writing the same address space).
    gen = mem.fetchGen();
    ASSERT_FALSE(as.writeBytes(text, &patched, 8).has_value());
    EXPECT_GT(mem.fetchGen(), gen);

    // Writes to non-executable pages leave the generation alone.
    u64 data = mapAnon(pageSize);
    gen = mem.fetchGen();
    ASSERT_FALSE(mem.write(data, &patched, 8).has_value());
    EXPECT_EQ(mem.fetchGen(), gen);
}

TEST_F(AccessTest, FetchUsesTheInstructionTlb)
{
    u64 text = as.map(0, pageSize, PROT_READ | PROT_EXEC,
                      MappingKind::Text);
    ASSERT_NE(text, 0u);
    u64 insn = 0;
    ASSERT_FALSE(mem.fetch(text, &insn, 8).has_value());
    u64 misses = tlb[TlbFetchMiss];
    ASSERT_FALSE(mem.fetch(text + 8, &insn, 8).has_value());
    EXPECT_EQ(tlb[TlbFetchMiss], misses);
    EXPECT_GT(tlb[TlbFetchHit], 0u);
}

TEST_F(AccessTest, ReadStringWithinAndAcrossPages)
{
    u64 va = mapAnon(2 * pageSize);
    const char short_str[] = "hello";
    ASSERT_FALSE(
        mem.write(va + 10, short_str, sizeof(short_str)).has_value());
    std::string out;
    u64 scanned = 0;
    EXPECT_EQ(mem.readString(va + 10, &out, 256, &scanned),
              MemAccess::StrRead::Ok);
    EXPECT_EQ(out, "hello");
    EXPECT_EQ(scanned, sizeof(short_str));

    // A string straddling the page boundary.
    std::string long_str(100, 'x');
    u64 start = va + pageSize - 50;
    ASSERT_FALSE(
        mem.write(start, long_str.c_str(), long_str.size() + 1)
            .has_value());
    EXPECT_EQ(mem.readString(start, &out, 256, &scanned),
              MemAccess::StrRead::Ok);
    EXPECT_EQ(out, long_str);
    EXPECT_EQ(scanned, long_str.size() + 1);
}

TEST_F(AccessTest, ReadStringReportsTooLongAndFault)
{
    u64 va = mapAnon(pageSize);
    std::string unterminated(64, 'y');
    ASSERT_FALSE(mem.write(va, unterminated.c_str(), unterminated.size())
                     .has_value());
    std::string out;
    EXPECT_EQ(mem.readString(va, &out, 32, nullptr),
              MemAccess::StrRead::TooLong);
    EXPECT_EQ(out, std::string(32, 'y'));

    // Fill the whole page with non-NUL bytes so the scan runs off the
    // end of the mapping mid-string.
    std::string page_fill(pageSize, 'z');
    ASSERT_FALSE(mem.write(va, page_fill.c_str(), pageSize).has_value());
    u64 scanned = 0;
    EXPECT_EQ(mem.readString(va + pageSize - 16, &out, 256, &scanned),
              MemAccess::StrRead::Fault);
    EXPECT_EQ(scanned, 16u);
    EXPECT_EQ(out, std::string(16, 'z'));
}

TEST_F(AccessTest, BindRetargetsAndDestructionDetaches)
{
    u64 va = mapAnon(pageSize);
    u64 v = 0xC0FFEE;
    ASSERT_FALSE(mem.write(va, &v, 8).has_value());

    auto other = std::make_unique<AddressSpace>(phys, swap, 7);
    u64 ova = other->map(0, pageSize, PROT_READ | PROT_WRITE,
                         MappingKind::Data);
    ASSERT_NE(ova, 0u);
    MemAccess roaming(as);
    prime(va);
    roaming.bind(*other);
    // All translations flushed; accesses now resolve in `other`.
    u64 got = 1;
    ASSERT_FALSE(roaming.read(ova, &got, 8).has_value());
    EXPECT_EQ(got, 0u);

    // Destroying the bound space must detach rather than dangle.
    other.reset();
    EXPECT_TRUE(roaming.read(ova, &got, 8).has_value());
    EXPECT_EQ(roaming.space(), nullptr);
}

/** Deterministic LCG so the stress run is reproducible. */
struct Lcg
{
    u64 s;
    u64 next() { return s = s * 6364136223846793005ull + 1442695040888963407ull; }
};

TEST_F(AccessTest, RandomizedStressAgainstWalkGroundTruth)
{
    constexpr u64 kPages = 8;
    u64 va = mapAnon(kPages * pageSize);
    std::vector<u8> shadow(kPages * pageSize, 0);
    Lcg rng{12345};

    for (int iter = 0; iter < 4000; ++iter) {
        u64 off = rng.next() % (kPages * pageSize - 16);
        switch (rng.next() % 8) {
          case 0: { // write through the walk path
            u64 v = rng.next();
            ASSERT_FALSE(as.writeBytes(va + off, &v, 8).has_value());
            std::memcpy(shadow.data() + off, &v, 8);
            break;
          }
          case 1:
          case 2: { // write through the TLB path
            u64 v = rng.next();
            ASSERT_FALSE(mem.write(va + off, &v, 8).has_value());
            std::memcpy(shadow.data() + off, &v, 8);
            break;
          }
          case 3: // evict a page under the TLB's feet
            as.swapOutPage(va + (off & ~pageMask));
            break;
          case 4: { // protection flip round trip
            u64 page = va + (off & ~pageMask);
            ASSERT_TRUE(as.protect(page, pageSize, PROT_READ));
            u64 v = 0;
            EXPECT_TRUE(mem.write(page, &v, 8).has_value());
            ASSERT_TRUE(
                as.protect(page, pageSize, PROT_READ | PROT_WRITE));
            break;
          }
          default: { // read back through both paths and compare
            u64 tlb_v = 0, walk_v = 0;
            ASSERT_FALSE(mem.read(va + off, &tlb_v, 8).has_value());
            ASSERT_FALSE(as.readBytes(va + off, &walk_v, 8).has_value());
            u64 want = 0;
            std::memcpy(&want, shadow.data() + off, 8);
            ASSERT_EQ(tlb_v, want) << "iter " << iter;
            ASSERT_EQ(walk_v, want) << "iter " << iter;
            break;
          }
        }
    }
    // Final sweep: every byte identical via both paths.
    std::vector<u8> got(kPages * pageSize);
    ASSERT_FALSE(mem.read(va, got.data(), got.size()).has_value());
    EXPECT_EQ(got, shadow);
    ASSERT_FALSE(as.readBytes(va, got.data(), got.size()).has_value());
    EXPECT_EQ(got, shadow);
}

class AccessKernelBothAbis : public test::SystemTest<::testing::TestWithParam<Abi>>
{
  protected:
    AccessKernelBothAbis() : SystemTest(GetParam()) {}
};

TEST_P(AccessKernelBothAbis, CopyinstrAcrossPageBoundary)
{
    GuestPtr buf = ctx().mmap(2 * pageSize);
    std::string s(pageSize / 2 + 300, 'k');
    u64 start_off = pageSize - 100; // straddles the boundary
    ctx().write(buf + static_cast<s64>(start_off), s.c_str(),
                s.size() + 1);
    std::string out;
    UserPtr p = ctx().toUser(buf + static_cast<s64>(start_off));
    ASSERT_EQ(kern().copyinstr(proc(), p, &out, s.size() + 1), E_OK);
    EXPECT_EQ(out, s);
}

TEST_P(AccessKernelBothAbis, CopyinstrRangeExhaustionIsERange)
{
    GuestPtr buf = ctx().mmap(pageSize);
    std::string s(64, 'q');
    ctx().write(buf, s.c_str(), s.size() + 1);
    std::string out;
    EXPECT_EQ(kern().copyinstr(proc(), ctx().toUser(buf), &out, 16),
              E_RANGE);
}

TEST_P(AccessKernelBothAbis, ForkChildIsCowIsolatedThroughMemPath)
{
    GuestPtr buf = ctx().mmap(pageSize);
    u64 before = 0x1234;
    ctx().write(buf, &before, 8);

    Process *child = kern().fork(proc());
    ASSERT_NE(child, nullptr);

    u64 after = 0x5678;
    ctx().write(buf, &after, 8);

    u64 child_sees = 0;
    ASSERT_FALSE(
        child->mem().read(buf.addr(), &child_sees, 8).has_value());
    EXPECT_EQ(child_sees, before);
    u64 parent_sees = 0;
    ASSERT_FALSE(
        proc().mem().read(buf.addr(), &parent_sees, 8).has_value());
    EXPECT_EQ(parent_sees, after);
}

TEST_P(AccessKernelBothAbis, MetricsAccumulatePerAbiTlbCounters)
{
    obs::Metrics mx;
    kern().setMetrics(&mx);
    GuestPtr buf = ctx().mmap(pageSize);
    u64 v = 9;
    ctx().write(buf, &v, 8);
    ctx().read(buf, &v, 8);
    ctx().read(buf, &v, 8);

    Abi abi = GetParam();
    EXPECT_GT(mx.tlbCounter(abi, TlbDataHit) +
                  mx.tlbCounter(abi, TlbDataMiss),
              0u);
    EXPECT_GT(mx.tlbCounter(abi, TlbDataHit), 0u);

    std::string json = mx.toJson();
    EXPECT_NE(json.find("cheri.metrics.v9"), std::string::npos);
    EXPECT_NE(json.find("\"tlb\""), std::string::npos);
    EXPECT_NE(json.find("data_hits"), std::string::npos);
    kern().setMetrics(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Abis, AccessKernelBothAbis,
                         ::testing::Values(Abi::Mips64, Abi::CheriAbi),
                         [](const auto &info) {
                             return info.param == Abi::CheriAbi
                                        ? "cheriabi"
                                        : "mips64";
                         });

} // namespace
} // namespace cheri
