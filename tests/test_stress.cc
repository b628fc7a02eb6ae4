/**
 * @file
 * Randomized stress tests checked against host-side reference models:
 * the virtual-memory system under random map/unmap/write/swap traffic,
 * the allocator under random malloc/free/realloc with shadow contents,
 * and cross-feature interactions (fork x swap x signals).
 */

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "libc/malloc.h"
#include "rng_util.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

// ---------------------------------------------------------------------
// VM stress vs a byte-level reference model
// ---------------------------------------------------------------------

class VmStress : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(VmStress, RandomOpsMatchReferenceModel)
{
    CHERI_TRACE_SEED(GetParam(), "CHERI_TEST_STRESS_SEEDS");
    std::mt19937_64 rng(GetParam());
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as(phys, swap, 1);

    // Reference: which pages exist (with prot) and their bytes.
    struct RefPage
    {
        u32 prot;
        std::map<u64, u8> bytes; // sparse
    };
    std::map<u64, RefPage> ref; // by page va

    std::vector<u64> regions; // region starts (4 pages each)
    const u64 region_pages = 4;

    for (int step = 0; step < 400; ++step) {
        switch (rng() % 6) {
          case 0: { // map
            u64 start = as.map(0, region_pages * pageSize,
                               PROT_READ | PROT_WRITE,
                               MappingKind::Data);
            ASSERT_NE(start, 0u);
            regions.push_back(start);
            for (u64 p = 0; p < region_pages; ++p) {
                ref[start + p * pageSize] =
                    RefPage{PROT_READ | PROT_WRITE, {}};
            }
            break;
          }
          case 1: { // unmap one page of a random region
            if (regions.empty())
                break;
            u64 start = regions[rng() % regions.size()];
            u64 page = start + (rng() % region_pages) * pageSize;
            as.unmap(page, pageSize);
            ref.erase(page);
            break;
          }
          case 2: { // write a few bytes somewhere
            if (regions.empty())
                break;
            u64 start = regions[rng() % regions.size()];
            u64 va = start + rng() % (region_pages * pageSize - 8);
            u64 val = rng();
            CapCheck fault = as.writeBytes(va, &val, 8);
            // Apply to the reference with the same page outcome.
            for (u64 i = 0; i < 8; ++i) {
                auto it = ref.find(pageTrunc(va + i));
                if (fault.has_value())
                    continue;
                ASSERT_NE(it, ref.end());
                it->second.bytes[va + i] =
                    static_cast<u8>(val >> (8 * i));
            }
            // A fault must mean some touched page is unmapped.
            if (fault.has_value()) {
                bool hole = false;
                for (u64 i = 0; i < 8; ++i)
                    hole |= !ref.count(pageTrunc(va + i));
                EXPECT_TRUE(hole);
            }
            break;
          }
          case 3: { // read back and compare
            if (regions.empty())
                break;
            u64 start = regions[rng() % regions.size()];
            u64 va = start + rng() % (region_pages * pageSize - 8);
            u8 buf[8];
            CapCheck fault = as.readBytes(va, buf, 8);
            bool hole = false;
            for (u64 i = 0; i < 8; ++i)
                hole |= !ref.count(pageTrunc(va + i));
            EXPECT_EQ(fault.has_value(), hole);
            if (!fault.has_value()) {
                for (u64 i = 0; i < 8; ++i) {
                    auto &page = ref.at(pageTrunc(va + i));
                    auto it = page.bytes.find(va + i);
                    u8 expect =
                        it == page.bytes.end() ? 0 : it->second;
                    ASSERT_EQ(buf[i], expect)
                        << "at 0x" << std::hex << va + i;
                }
            }
            break;
          }
          case 4: { // swap out a random page
            if (regions.empty())
                break;
            u64 start = regions[rng() % regions.size()];
            as.swapOutPage(start + (rng() % region_pages) * pageSize);
            break;
          }
          case 5: { // swap out many, then touch
            as.swapOutResident(rng() % 8);
            break;
          }
        }
    }
    // Full final verification of every mapped byte we wrote.
    for (const auto &[page_va, page] : ref) {
        for (const auto &[va, expect] : page.bytes) {
            u8 got = 0xEE;
            ASSERT_FALSE(as.readBytes(va, &got, 1).has_value());
            EXPECT_EQ(got, expect);
        }
    }
}

// The seed corpus defaults to 0..7 and is overridable without a
// rebuild: CHERI_TEST_STRESS_SEEDS=3,17,9001 makes each listed seed
// its own ctest case.
INSTANTIATE_TEST_SUITE_P(
    Seeds, VmStress,
    ::testing::ValuesIn(test::seedsFromEnv("CHERI_TEST_STRESS_SEEDS", 8)));

// ---------------------------------------------------------------------
// Allocator stress vs shadow contents
// ---------------------------------------------------------------------

class MallocStress : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MallocStress, RandomLifecyclesKeepContentsAndBounds)
{
    CHERI_TRACE_SEED(GetParam(), "CHERI_TEST_STRESS_SEEDS");
    std::mt19937_64 rng(GetParam());
    TestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    GuestMalloc heap(ctx);

    struct Shadow
    {
        GuestPtr ptr;
        std::vector<u8> bytes;
    };
    std::vector<Shadow> live;

    auto fill = [&](Shadow &s) {
        for (size_t i = 0; i < s.bytes.size(); ++i) {
            s.bytes[i] = static_cast<u8>(rng());
            ctx.store<u8>(s.ptr, static_cast<s64>(i), s.bytes[i]);
        }
    };
    auto verify = [&](const Shadow &s) {
        for (size_t i = 0; i < s.bytes.size(); ++i) {
            ASSERT_EQ(ctx.load<u8>(s.ptr, static_cast<s64>(i)),
                      s.bytes[i]);
        }
    };

    for (int step = 0; step < 500; ++step) {
        switch (rng() % 4) {
          case 0: { // malloc
            u64 size = 1 + rng() % 700;
            Shadow s;
            s.ptr = heap.malloc(size);
            ASSERT_TRUE(s.ptr.cap.tag());
            ASSERT_GE(s.ptr.cap.length(), size);
            s.bytes.resize(size);
            fill(s);
            live.push_back(std::move(s));
            break;
          }
          case 1: { // free a random one
            if (live.empty())
                break;
            size_t i = rng() % live.size();
            ASSERT_TRUE(heap.free(live[i].ptr));
            live.erase(live.begin() + static_cast<long>(i));
            break;
          }
          case 2: { // realloc a random one
            if (live.empty())
                break;
            size_t i = rng() % live.size();
            u64 new_size = 1 + rng() % 900;
            GuestPtr np = heap.realloc(live[i].ptr, new_size);
            ASSERT_TRUE(np.cap.tag());
            live[i].ptr = np;
            size_t keep = std::min<size_t>(live[i].bytes.size(),
                                           new_size);
            live[i].bytes.resize(keep);
            verify(live[i]);
            live[i].bytes.resize(new_size);
            for (size_t j = keep; j < new_size; ++j) {
                live[i].bytes[j] = static_cast<u8>(rng());
                ctx.store<u8>(live[i].ptr, static_cast<s64>(j),
                              live[i].bytes[j]);
            }
            break;
          }
          case 3: { // verify a random survivor
            if (live.empty())
                break;
            verify(live[rng() % live.size()]);
            break;
          }
        }
    }
    // No two live capabilities may overlap, ever.
    for (size_t i = 0; i < live.size(); ++i) {
        for (size_t j = i + 1; j < live.size(); ++j) {
            u64 ai = live[i].ptr.cap.base();
            u64 ti = static_cast<u64>(live[i].ptr.cap.top());
            u64 aj = live[j].ptr.cap.base();
            u64 tj = static_cast<u64>(live[j].ptr.cap.top());
            ASSERT_TRUE(ti <= aj || tj <= ai);
        }
    }
    for (const Shadow &s : live)
        verify(s);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MallocStress,
    ::testing::ValuesIn(test::seedsFromEnv("CHERI_TEST_STRESS_SEEDS", 6)));

// ---------------------------------------------------------------------
// Cross-feature interactions
// ---------------------------------------------------------------------

TEST(Interactions, ForkedChildSurvivesParentSwapAndSignals)
{
    TestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    GuestMalloc heap(ctx);
    // Parent builds a pointer-laced structure.
    GuestPtr table = heap.malloc(8 * capSize);
    for (int i = 0; i < 8; ++i) {
        GuestPtr cell = heap.malloc(16);
        ctx.store<u64>(cell, 0, 100 + i);
        ctx.storePtr(table, i * static_cast<s64>(capSize), cell);
    }
    Process *child = sys.kern.fork(*sys.proc);
    GuestContext cctx(sys.kern, *child);

    // Parent: swap out, take a signal, mutate.
    sys.proc->as().swapOutResident(1 << 20);
    u64 hid = sys.proc->registerHandler([](Process &, SigFrame &) {});
    sys.kern.sysSigaction(*sys.proc, SIG_USR1,
                          {SigAction::Kind::Handler, hid});
    sys.kern.sysKill(*sys.proc, sys.proc->pid(), SIG_USR1);
    sys.kern.deliverSignals(*sys.proc);
    GuestPtr p0 = ctx.loadPtr(table, 0);
    ctx.store<u64>(p0, 0, 999);

    // Child still sees the pre-fork world, tags intact.
    for (int i = 0; i < 8; ++i) {
        GuestPtr cell = cctx.loadPtr(table, i * static_cast<s64>(capSize));
        ASSERT_TRUE(cell.cap.tag()) << i;
        EXPECT_EQ(cctx.load<u64>(cell), 100u + i) << i;
    }
    // And the parent sees its own mutation.
    EXPECT_EQ(ctx.load<u64>(ctx.loadPtr(table, 0)), 999u);
}

TEST(Interactions, SwapStormPreservesWholeHeapGraph)
{
    TestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    GuestMalloc heap(ctx);
    // A 512-node linked structure with payloads.
    GuestPtr head;
    for (int i = 0; i < 512; ++i) {
        GuestPtr node = heap.malloc(32);
        ctx.storePtr(node, 0, head);
        ctx.store<u64>(node, 16, static_cast<u64>(i));
        head = node;
    }
    // Three full eviction storms with walks in between.
    for (int storm = 0; storm < 3; ++storm) {
        sys.proc->as().swapOutResident(1 << 20);
        u64 sum = 0, count = 0;
        GuestPtr cur = head;
        while (!cur.isNull() && cur.addr() != 0) {
            sum += ctx.load<u64>(cur, 16);
            ++count;
            cur = ctx.loadPtr(cur, 0);
        }
        ASSERT_EQ(count, 512u) << "storm " << storm;
        ASSERT_EQ(sum, 511u * 512 / 2) << "storm " << storm;
    }
    EXPECT_GE(sys.kern.swapDevice().totalTagsPreserved(), 511u);
}

TEST(Interactions, SignalStormDuringPointerWork)
{
    TestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    GuestMalloc heap(ctx);
    GuestPtr buf = heap.malloc(64);
    sys.proc->regs().c[4] = buf.cap;
    int handled = 0;
    u64 hid = sys.proc->registerHandler(
        [&](Process &, SigFrame &) { ++handled; });
    sys.kern.sysSigaction(*sys.proc, SIG_USR1,
                          {SigAction::Kind::Handler, hid});
    sys.kern.sysSigaction(*sys.proc, SIG_USR2,
                          {SigAction::Kind::Handler, hid});
    for (int i = 0; i < 64; ++i) {
        sys.kern.sysKill(*sys.proc, sys.proc->pid(),
                         i % 2 ? SIG_USR1 : SIG_USR2);
        sys.kern.deliverSignals(*sys.proc);
        ASSERT_TRUE(sys.proc->regs().c[4].tag()) << i;
        ctx.store<u64>(GuestPtr(sys.proc->regs().c[4]), 0,
                       static_cast<u64>(i));
    }
    EXPECT_EQ(handled, 64);
    EXPECT_EQ(ctx.load<u64>(buf), 63u);
}

} // namespace
} // namespace cheri
// (appended) ---------------------------------------------------------
// Abstract-capability containment and ASLR invariants.

namespace cheri
{
namespace
{

TEST(Containment, HeavyWorkloadNeverEscapesPrincipalRoot)
{
    test::TestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    GuestMalloc heap(ctx);
    // Build a dense, pointer-laced heap, churn it, swap some of it.
    std::vector<GuestPtr> live;
    for (int i = 0; i < 200; ++i) {
        GuestPtr p = heap.malloc(48 + (i % 5) * 32);
        if (!live.empty())
            ctx.storePtr(p, 0, live[static_cast<size_t>(i) % live.size()]);
        live.push_back(p);
        if (i % 3 == 0 && live.size() > 4) {
            heap.free(live.front());
            live.erase(live.begin());
        }
    }
    sys.proc->as().swapOutResident(64);
    ctx.load<u64>(live.back(), 0); // force some swap-ins
    EXPECT_EQ(sys.proc->as().verifyCapContainment(), 0u)
        << "every tagged capability must stay within its principal's "
           "root";
    // Spot check the register file under the same rule.
    const Capability &root = sys.proc->as().rederivationRoot();
    for (const Capability &c : sys.proc->regs().c) {
        if (!c.tag())
            continue;
        EXPECT_GE(c.base(), root.base());
        EXPECT_LE(c.top(), root.top());
    }
}

TEST(Containment, VerifierDetectsPlantedViolation)
{
    // Sanity: the checker is not vacuous.  Plant an out-of-authority
    // capability through the physical layer (something no architectural
    // path could do).
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as(phys, swap, 1);
    u64 va = as.map(0, pageSize, PROT_READ | PROT_WRITE,
                    MappingKind::Data);
    Capability evil = Capability::root()
                          .setAddress(AddressSpace::userTop + 0x1000)
                          .setBounds(64)
                          .value();
    ASSERT_FALSE(as.writeCap(va, evil).has_value());
    EXPECT_EQ(as.verifyCapContainment(), 1u);
}

TEST(Aslr, SeedsChangeLayoutButNotResults)
{
    auto layout = [](u64 seed) {
        KernelConfig cfg;
        cfg.aslrSeed = seed;
        test::TestSystem sys(Abi::CheriAbi, cfg);
        GuestContext ctx(sys.kern, *sys.proc);
        GuestMalloc heap(ctx);
        GuestPtr a = heap.malloc(64);
        ctx.store<u64>(a, 0, 0xABC);
        EXPECT_EQ(ctx.load<u64>(a), 0xABCu);
        EXPECT_EQ(sys.proc->as().verifyCapContainment(), 0u);
        return a.addr();
    };
    u64 a1 = layout(11), a2 = layout(12), a0 = layout(0);
    EXPECT_NE(a1, a2) << "different seeds, different placement";
    (void)a0;
}

} // namespace
} // namespace cheri
