/**
 * @file
 * Tests for tagged physical memory, address spaces (demand-zero, COW,
 * shared mappings), and tag-preserving swap with rederivation.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mem/phys_mem.h"
#include "mem/swap.h"
#include "mem/vm.h"

namespace cheri
{
namespace
{

class MemTest : public ::testing::Test
{
  protected:
    PhysMem phys;
    SwapDevice swap;
    AddressSpace as{phys, swap, 1};

    u64
    mapAnon(u64 len, u32 prot = PROT_READ | PROT_WRITE)
    {
        u64 va = as.map(0, len, prot, MappingKind::Data);
        EXPECT_NE(va, 0u);
        return va;
    }

    Capability
    capFor(u64 va, u64 len)
    {
        return as.capForRange(va, len, PROT_READ | PROT_WRITE);
    }
};

TEST_F(MemTest, FrameDataWriteClearsTag)
{
    auto frame = phys.allocFrame();
    Capability c = Capability::root().setAddress(0x100).setBounds(16).value();
    frame->writeCap(0, c);
    EXPECT_TRUE(frame->tagAt(0));
    EXPECT_EQ(frame->readCap(0), c);
    // Overwrite one byte of the granule with data: tag must clear.
    u8 b = 0xFF;
    frame->write(7, &b, 1);
    EXPECT_FALSE(frame->tagAt(0));
    EXPECT_FALSE(frame->readCap(0).tag());
}

TEST_F(MemTest, FrameCopyPreservesTags)
{
    auto a = phys.allocFrame();
    Capability c = Capability::root().setAddress(0x200).setBounds(32).value();
    a->writeCap(16, c);
    auto b = phys.allocFrame();
    b->copyFrom(*a);
    EXPECT_TRUE(b->tagAt(16));
    EXPECT_EQ(b->readCap(16), c);
}

TEST_F(MemTest, DemandZeroPagesReadAsZero)
{
    u64 va = mapAnon(3 * pageSize);
    std::array<u8, 64> buf;
    buf.fill(0xAA);
    ASSERT_FALSE(as.readBytes(va + pageSize + 100, buf.data(), 64)
                     .has_value());
    for (u8 byte : buf)
        EXPECT_EQ(byte, 0);
    // Only touched pages become resident.
    EXPECT_EQ(as.residentPages(), 1u);
}

TEST_F(MemTest, ReadWriteRoundTripAcrossPages)
{
    u64 va = mapAnon(2 * pageSize);
    std::vector<u8> out(5000), in(5000);
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<u8>(i * 7);
    ASSERT_FALSE(as.writeBytes(va + 100, out.data(), out.size())
                     .has_value());
    ASSERT_FALSE(as.readBytes(va + 100, in.data(), in.size()).has_value());
    EXPECT_EQ(in, out);
}

TEST_F(MemTest, UnmappedAccessPageFaults)
{
    u8 b;
    auto fault = as.readBytes(0x123456000, &b, 1);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(*fault, CapFault::PageFault);
}

TEST_F(MemTest, ProtectionIsEnforced)
{
    u64 va = mapAnon(pageSize, PROT_READ);
    u8 b = 1;
    EXPECT_FALSE(as.readBytes(va, &b, 1).has_value());
    EXPECT_TRUE(as.writeBytes(va, &b, 1).has_value());
    ASSERT_TRUE(as.protect(va, pageSize, PROT_READ | PROT_WRITE));
    EXPECT_FALSE(as.writeBytes(va, &b, 1).has_value());
}

TEST_F(MemTest, CapStoreLoadRoundTrip)
{
    u64 va = mapAnon(pageSize);
    Capability c = capFor(va, 64);
    ASSERT_FALSE(as.writeCap(va + 32, c).has_value());
    auto r = as.readCap(va + 32);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), c);
    EXPECT_TRUE(r.value().tag());
}

TEST_F(MemTest, MisalignedCapAccessFaults)
{
    u64 va = mapAnon(pageSize);
    auto r = as.readCap(va + 8);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.fault(), CapFault::AlignmentViolation);
}

TEST_F(MemTest, DataStoreOverCapClearsItsTag)
{
    u64 va = mapAnon(pageSize);
    Capability c = capFor(va, 64);
    ASSERT_FALSE(as.writeCap(va, c).has_value());
    u64 evil = 0xDEADBEEF;
    ASSERT_FALSE(as.writeBytes(va + 4, &evil, 8).has_value());
    auto r = as.readCap(va);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().tag()) << "in-memory forgery must untag";
}

TEST_F(MemTest, MapFixedRefusesOverlapUnlessForced)
{
    u64 va = mapAnon(pageSize);
    EXPECT_EQ(as.map(va, pageSize, PROT_READ, MappingKind::Data, true), 0u);
    EXPECT_EQ(as.map(va, pageSize, PROT_READ, MappingKind::Data, true,
                     false, "", true),
              va);
}

TEST_F(MemTest, ForcedFixedReplaceLeavesFreshDemandZeroPtes)
{
    // Touch all three pages: plain data, a tagged capability, and a
    // page that is then swapped out.
    u64 va = mapAnon(3 * pageSize);
    u64 word = 0x5A5A;
    for (u64 pg = 0; pg < 3; ++pg)
        ASSERT_FALSE(as.writeBytes(va + pg * pageSize, &word, 8));
    ASSERT_FALSE(as.writeCap(va + pageSize + 16, capFor(va, 16)));
    ASSERT_TRUE(as.swapOutPage(va + 2 * pageSize));

    ASSERT_EQ(as.map(va, 3 * pageSize, PROT_READ, MappingKind::Data, true,
                     false, "", true),
              va);
    std::vector<AddressSpace::PteView> ptes;
    as.forEachPte([&](const AddressSpace::PteView &v) { ptes.push_back(v); });
    ASSERT_EQ(ptes.size(), 3u);
    for (u64 pg = 0; pg < 3; ++pg) {
        const AddressSpace::PteView &v = ptes[pg];
        EXPECT_EQ(v.va, va + pg * pageSize);
        EXPECT_EQ(v.prot, u32{PROT_READ});
        EXPECT_EQ(v.frame, nullptr);
        EXPECT_FALSE(v.swapped);
        EXPECT_FALSE(v.cow);
        EXPECT_FALSE(v.capDirty);
    }
    EXPECT_EQ(phys.liveFrames(), 0u);
    u64 slots = 0;
    swap.forEachSlot([&](u64, u64) { ++slots; });
    EXPECT_EQ(slots, 0u) << "the swapped page's slot must be released";

    u64 got = 1;
    ASSERT_FALSE(as.readBytes(va + pageSize, &got, 8));
    EXPECT_EQ(got, 0u);
    EXPECT_FALSE(as.readCap(va + pageSize + 16).value().tag());
    EXPECT_TRUE(as.writeBytes(va, &word, 8).has_value())
        << "the replacement mapping is read-only";
}

TEST_F(MemTest, ForcedFixedReplaceInsideMappingKeepsNeighbours)
{
    u64 va = mapAnon(3 * pageSize);
    for (u64 pg = 0; pg < 3; ++pg) {
        u64 word = 0x100 + pg;
        ASSERT_FALSE(as.writeBytes(va + pg * pageSize, &word, 8));
    }
    ASSERT_EQ(as.map(va + pageSize, pageSize, PROT_READ, MappingKind::Data,
                     true, false, "", true),
              va + pageSize);
    std::vector<AddressSpace::PteView> ptes;
    as.forEachPte([&](const AddressSpace::PteView &v) { ptes.push_back(v); });
    ASSERT_EQ(ptes.size(), 3u);
    EXPECT_EQ(ptes[1].va, va + pageSize);
    EXPECT_EQ(ptes[1].prot, u32{PROT_READ});
    EXPECT_EQ(ptes[1].frame, nullptr);
    for (u64 pg : {u64{0}, u64{2}}) {
        EXPECT_EQ(ptes[pg].prot, u32{PROT_READ | PROT_WRITE});
        u64 got = 0;
        ASSERT_FALSE(as.readBytes(va + pg * pageSize, &got, 8));
        EXPECT_EQ(got, 0x100 + pg);
    }
}

TEST_F(MemTest, ForEachTaggedVisitsGranulesInAscendingOffsetOrder)
{
    auto frame = phys.allocFrame();
    // Stored out of order, across all four tag words and their edges.
    for (u64 g : {u64{255}, u64{64}, u64{0}, u64{127}, u64{63}}) {
        frame->writeCap(g * capSize, Capability::root()
                                         .setAddress(0x1000 + g * 64)
                                         .setBounds(16)
                                         .value());
    }
    // An untagged store sets no tag and must not be visited.
    frame->writeCap(5 * capSize, Capability::fromAddress(42));
    std::vector<u64> offs;
    frame->forEachTagged([&](u64 off, const Capability &cap) {
        offs.push_back(off);
        EXPECT_EQ(cap, frame->readCap(off));
    });
    EXPECT_EQ(offs, (std::vector<u64>{0, 63 * capSize, 64 * capSize,
                                      127 * capSize, 255 * capSize}));
    EXPECT_EQ(frame->taggedCount(), 5u);

    frame->clearTagAt(64 * capSize);
    offs.clear();
    frame->forEachTagged(
        [&](u64 off, const Capability &) { offs.push_back(off); });
    EXPECT_EQ(offs, (std::vector<u64>{0, 63 * capSize, 127 * capSize,
                                      255 * capSize}));
    EXPECT_EQ(frame->taggedCount(), 4u);
}

TEST_F(MemTest, UnmapSplitsMappings)
{
    u64 va = mapAnon(4 * pageSize);
    ASSERT_TRUE(as.unmap(va + pageSize, pageSize));
    EXPECT_NE(as.findMapping(va), nullptr);
    EXPECT_EQ(as.findMapping(va + pageSize), nullptr);
    EXPECT_NE(as.findMapping(va + 2 * pageSize), nullptr);
    u8 b = 0;
    EXPECT_TRUE(as.readBytes(va + pageSize, &b, 1).has_value());
    EXPECT_FALSE(as.readBytes(va + 3 * pageSize, &b, 1).has_value());
}

TEST_F(MemTest, CapForRangeDerivesPermsFromProt)
{
    u64 va = mapAnon(pageSize, PROT_READ);
    Capability c = as.capForRange(va, pageSize, PROT_READ);
    EXPECT_TRUE(c.hasPerms(PERM_LOAD));
    EXPECT_FALSE(c.hasPerms(PERM_STORE));
    EXPECT_TRUE(c.hasPerms(PERM_SW_VMMAP));
    Capability nc = as.capForRange(va, pageSize, PROT_READ, false);
    EXPECT_FALSE(nc.hasPerms(PERM_SW_VMMAP));
}

TEST_F(MemTest, SwapRoundTripPreservesDataAndTags)
{
    u64 va = mapAnon(pageSize);
    Capability c = capFor(va, 128);
    u64 magic = 0x1122334455667788;
    ASSERT_FALSE(as.writeBytes(va + 200, &magic, 8).has_value());
    ASSERT_FALSE(as.writeCap(va + 256, c).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    EXPECT_EQ(as.residentPages(), 0u);
    EXPECT_EQ(swap.usedSlots(), 1u);
    // Touching the page swaps it back in.
    u64 got = 0;
    ASSERT_FALSE(as.readBytes(va + 200, &got, 8).has_value());
    EXPECT_EQ(got, magic);
    auto r = as.readCap(va + 256);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().tag()) << "swap must rederive capabilities";
    EXPECT_EQ(r.value().base(), c.base());
    EXPECT_EQ(r.value().top(), c.top());
    EXPECT_EQ(r.value().perms(), c.perms());
    EXPECT_EQ(swap.usedSlots(), 0u);
}

TEST_F(MemTest, NaiveSwapLosesTags)
{
    SwapDevice naive(SwapPolicy::Naive);
    AddressSpace as2(phys, naive, 2);
    u64 va = as2.map(0, pageSize, PROT_READ | PROT_WRITE,
                     MappingKind::Data);
    Capability c = as2.capForRange(va, 64, PROT_READ | PROT_WRITE);
    ASSERT_FALSE(as2.writeCap(va, c).has_value());
    ASSERT_TRUE(as2.swapOutPage(va));
    auto r = as2.readCap(va);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().tag())
        << "without tag metadata, swap destroys capabilities";
    // The address survives as data, as on a real tag-less disk.
    EXPECT_EQ(r.value().address(), c.address());
}

TEST_F(MemTest, SwapRederivationCannotEscalate)
{
    // Craft a frame whose metadata claims kernel-range bounds; the user
    // root must refuse to rederive it.
    auto frame = phys.allocFrame();
    Capability bogus = Capability::root()
                           .setAddress(AddressSpace::userTop + 0x1000)
                           .setBounds(0x1000)
                           .value();
    frame->writeCap(0, bogus);
    u64 slot = swap.swapOut(*frame);
    auto fresh = phys.allocFrame();
    swap.swapIn(slot, *fresh, as.rederivationRoot());
    EXPECT_FALSE(fresh->readCap(0).tag())
        << "rederivation beyond the principal root must fail closed";
}

TEST_F(MemTest, ForkCopyIsCopyOnWrite)
{
    u64 va = mapAnon(pageSize);
    u64 parent_val = 0xAAAA;
    ASSERT_FALSE(as.writeBytes(va, &parent_val, 8).has_value());
    auto child = as.forkCopy(99);
    EXPECT_EQ(child->principal(), 99u);
    // Child sees parent data...
    u64 got = 0;
    ASSERT_FALSE(child->readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, parent_val);
    // ...but writes are private in both directions.
    u64 child_val = 0xBBBB;
    ASSERT_FALSE(child->writeBytes(va, &child_val, 8).has_value());
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, parent_val);
    u64 parent_val2 = 0xCCCC;
    ASSERT_FALSE(as.writeBytes(va, &parent_val2, 8).has_value());
    ASSERT_FALSE(child->readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, child_val);
}

TEST_F(MemTest, ForkPreservesCapTagsAcrossCow)
{
    u64 va = mapAnon(pageSize);
    Capability c = capFor(va, 64);
    ASSERT_FALSE(as.writeCap(va, c).has_value());
    auto child = as.forkCopy(100);
    // Force the COW copy by writing elsewhere in the page.
    u8 b = 1;
    ASSERT_FALSE(child->writeBytes(va + 128, &b, 1).has_value());
    auto r = child->readCap(va);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().tag()) << "COW copies preserve tags in-kernel";
}

TEST_F(MemTest, SharedMappingsAliasFrames)
{
    u64 va = as.map(0, pageSize, PROT_READ | PROT_WRITE,
                    MappingKind::SharedMem, false, true);
    ASSERT_NE(va, 0u);
    u64 v = 42;
    ASSERT_FALSE(as.writeBytes(va, &v, 8).has_value());
    auto child = as.forkCopy(101);
    u64 v2 = 77;
    ASSERT_FALSE(child->writeBytes(va, &v2, 8).has_value());
    u64 got = 0;
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, v2) << "shared mapping writes must be visible to both";
}

TEST_F(MemTest, SwapOutResidentEvictsAndRestores)
{
    u64 va = mapAnon(8 * pageSize);
    for (u64 p = 0; p < 8; ++p) {
        u64 val = p;
        ASSERT_FALSE(
            as.writeBytes(va + p * pageSize, &val, 8).has_value());
    }
    EXPECT_EQ(as.residentPages(), 8u);
    u64 evicted = as.swapOutResident(5);
    EXPECT_EQ(evicted, 5u);
    EXPECT_EQ(as.residentPages(), 3u);
    for (u64 p = 0; p < 8; ++p) {
        u64 got = ~u64{0};
        ASSERT_FALSE(
            as.readBytes(va + p * pageSize, &got, 8).has_value());
        EXPECT_EQ(got, p);
    }
}

TEST_F(MemTest, PhysMemAccountsLiveFrames)
{
    u64 before = phys.liveFrames();
    {
        auto f = phys.allocFrame();
        EXPECT_EQ(phys.liveFrames(), before + 1);
    }
    EXPECT_EQ(phys.liveFrames(), before);
}

TEST_F(MemTest, RepresentablePaddingForLargeMappings)
{
    // A 1 MiB + 1 page request needs padding so mmap can return an
    // exactly-bounded capability.
    u64 want = (u64{1} << 20) + pageSize;
    u64 padded = as.representablePadding(want);
    EXPECT_GE(padded, want);
    EXPECT_TRUE(compress::boundsExactlyRepresentable(0, padded));
}

// --- swap-slot lifecycle -------------------------------------------------

TEST_F(MemTest, UnmapWhileSwappedDiscardsSlot)
{
    u64 va = mapAnon(2 * pageSize);
    u8 b = 1;
    ASSERT_FALSE(as.writeBytes(va, &b, 1).has_value());
    ASSERT_FALSE(as.writeBytes(va + pageSize, &b, 1).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    ASSERT_TRUE(as.swapOutPage(va + pageSize));
    EXPECT_EQ(swap.usedSlots(), 2u);
    ASSERT_TRUE(as.unmap(va, 2 * pageSize));
    EXPECT_EQ(swap.usedSlots(), 0u)
        << "munmap of swapped pages must release their slots";
    EXPECT_EQ(swap.totalDiscards(), 2u);
}

TEST_F(MemTest, DestructorDiscardsSwappedSlots)
{
    {
        AddressSpace dying(phys, swap, 7);
        u64 va = dying.map(0, pageSize, PROT_READ | PROT_WRITE,
                           MappingKind::Data);
        u8 b = 9;
        ASSERT_FALSE(dying.writeBytes(va, &b, 1).has_value());
        ASSERT_TRUE(dying.swapOutPage(va));
        EXPECT_EQ(swap.usedSlots(), 1u);
    }
    EXPECT_EQ(swap.usedSlots(), 0u)
        << "an address space's death must not leak swap slots";
}

TEST_F(MemTest, ReleaseAllFreesFramesAndSlots)
{
    u64 before = phys.liveFrames();
    u64 va = mapAnon(4 * pageSize);
    u8 b = 3;
    for (u64 p = 0; p < 4; ++p)
        ASSERT_FALSE(
            as.writeBytes(va + p * pageSize, &b, 1).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    EXPECT_EQ(swap.usedSlots(), 1u);
    EXPECT_EQ(as.residentPages(), 3u);
    as.releaseAll();
    EXPECT_EQ(phys.liveFrames(), before);
    EXPECT_EQ(swap.usedSlots(), 0u);
    EXPECT_EQ(as.residentPages(), 0u);
    EXPECT_EQ(as.swappedPages(), 0u);
}

TEST_F(MemTest, ForkSharesSwapSlotUntilBothSwapIn)
{
    u64 va = mapAnon(pageSize);
    u64 val = 0x5117;
    ASSERT_FALSE(as.writeBytes(va, &val, 8).has_value());
    Capability c = capFor(va, 64);
    ASSERT_FALSE(as.writeCap(va + 64, c).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    EXPECT_EQ(swap.usedSlots(), 1u);
    auto child = as.forkCopy(102);
    // Child swap-in must not free the slot out from under the parent.
    u64 got = 0;
    ASSERT_FALSE(child->readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, val);
    EXPECT_EQ(swap.usedSlots(), 1u)
        << "slot must survive until the fork sibling resolves it too";
    got = 0;
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, val);
    EXPECT_EQ(swap.usedSlots(), 0u);
    // Both sides rederived tags from their own roots...
    auto pr = as.readCap(va + 64);
    auto cr = child->readCap(va + 64);
    ASSERT_TRUE(pr.ok());
    ASSERT_TRUE(cr.ok());
    EXPECT_TRUE(pr.value().tag());
    EXPECT_TRUE(cr.value().tag());
    // ...into private frames: a post-fork write stays private.
    u64 child_val = 0xC0C0;
    ASSERT_FALSE(child->writeBytes(va, &child_val, 8).has_value());
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, val);
}

TEST_F(MemTest, ForkSiblingExitKeepsSwapSlotAlive)
{
    u64 va = mapAnon(pageSize);
    u64 val = 0xD00D;
    ASSERT_FALSE(as.writeBytes(va, &val, 8).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    {
        auto child = as.forkCopy(103);
        EXPECT_EQ(swap.usedSlots(), 1u);
    }
    // The child died holding a reference; the parent's copy survives.
    EXPECT_EQ(swap.usedSlots(), 1u);
    u64 got = 0;
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, val);
    EXPECT_EQ(swap.usedSlots(), 0u);
}

TEST_F(MemTest, InstallFrameOverSwappedPageReleasesSlot)
{
    u64 va = mapAnon(pageSize);
    u8 b = 4;
    ASSERT_FALSE(as.writeBytes(va, &b, 1).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    EXPECT_EQ(swap.usedSlots(), 1u);
    ASSERT_TRUE(as.installFrame(va, phys.allocFrame()));
    EXPECT_EQ(swap.usedSlots(), 0u)
        << "shmat over a swapped-out page must not leak its slot";
}

TEST_F(MemTest, SwapInOfUnknownSlotFailsWithoutAborting)
{
    auto frame = phys.allocFrame();
    u64 before = swap.failedSwapIns();
    EXPECT_FALSE(swap.swapIn(12345, *frame, as.rederivationRoot()));
    EXPECT_EQ(swap.failedSwapIns(), before + 1);
}

// --- atomic mprotect -----------------------------------------------------

TEST_F(MemTest, ProtectIsAtomicOverPartialRange)
{
    u64 va = as.map(0x40000000, 2 * pageSize, PROT_READ | PROT_WRITE,
                    MappingKind::Data, true);
    ASSERT_NE(va, 0u);
    ASSERT_TRUE(as.unmap(va + pageSize, pageSize)); // hole at page 1
    // Range covers mapped + hole: must fail without touching page 0.
    EXPECT_FALSE(as.protect(va, 2 * pageSize, PROT_READ));
    u64 v = 5;
    EXPECT_FALSE(as.writeBytes(va, &v, 8).has_value())
        << "failed mprotect must leave earlier pages writable";
}

// --- LRU eviction --------------------------------------------------------

TEST_F(MemTest, EvictionOrderIsLeastRecentlyUsedFirst)
{
    u64 va = mapAnon(4 * pageSize);
    u8 b = 1;
    // Touch pages 0..3, then re-touch 0 and 2: LRU order is 1, 3, 0, 2.
    for (u64 p = 0; p < 4; ++p)
        ASSERT_FALSE(
            as.writeBytes(va + p * pageSize, &b, 1).has_value());
    ASSERT_FALSE(as.writeBytes(va, &b, 1).has_value());
    ASSERT_FALSE(as.writeBytes(va + 2 * pageSize, &b, 1).has_value());
    std::vector<u64> order = as.evictionOrder(4);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], va + pageSize);
    EXPECT_EQ(order[1], va + 3 * pageSize);
    EXPECT_EQ(order[2], va);
    EXPECT_EQ(order[3], va + 2 * pageSize);
    // swapOutResident(2) must evict exactly the two coldest pages.
    EXPECT_EQ(as.swapOutResident(2), 2u);
    EXPECT_EQ(as.residentPages(), 2u);
    u64 got = 0;
    // Pages 0 and 2 are still resident (no swap-in needed).
    EXPECT_EQ(swap.usedSlots(), 2u);
    ASSERT_FALSE(as.readBytes(va, &got, 1).has_value());
    EXPECT_EQ(swap.usedSlots(), 2u);
}

TEST_F(MemTest, EvictionOrderReproducibleAcrossRuns)
{
    // Two address spaces driven identically must evict identically.
    auto drive = [this](AddressSpace &s) {
        u64 va = s.map(0x50000000, 6 * pageSize,
                       PROT_READ | PROT_WRITE, MappingKind::Data, true);
        u8 b = 1;
        for (u64 p : {3u, 0u, 5u, 1u, 4u, 2u, 0u, 5u})
            EXPECT_FALSE(
                s.writeBytes(va + p * pageSize, &b, 1).has_value());
        return s.evictionOrder(6);
    };
    AddressSpace a(phys, swap, 11), b2(phys, swap, 12);
    EXPECT_EQ(drive(a), drive(b2));
}

// --- capacity and budget enforcement -------------------------------------

TEST_F(MemTest, FrameCapacityEnforced)
{
    PhysMem small;
    small.setCapacity(2);
    auto f1 = small.allocFrame();
    auto f2 = small.allocFrame();
    ASSERT_TRUE(f1 && f2);
    EXPECT_EQ(small.allocFrame(), nullptr)
        << "allocation beyond capacity without a reclaim hook must fail";
    EXPECT_EQ(small.failedAllocs(), 1u);
    f1.reset();
    EXPECT_NE(small.allocFrame(), nullptr);
}

TEST_F(MemTest, ReclaimHookRunsOnPressure)
{
    PhysMem small;
    small.setCapacity(2);
    std::vector<FrameRef> held;
    held.push_back(small.allocFrame());
    held.push_back(small.allocFrame());
    u64 asked = 0;
    small.setReclaimHook([&](u64 wanted, const void *) {
        asked += wanted;
        held.clear(); // free everything
        return u64{2};
    });
    FrameRef f = small.allocFrame();
    EXPECT_NE(f, nullptr) << "reclaim made room, alloc must succeed";
    EXPECT_EQ(asked, 1u);
    EXPECT_EQ(small.reclaimRequests(), 1u);
}

TEST_F(MemTest, SlotBudgetEnforced)
{
    SwapDevice tight;
    tight.setSlotBudget(1);
    auto f = phys.allocFrame();
    u64 s1 = tight.swapOut(*f);
    ASSERT_NE(s1, SwapDevice::invalidSlot);
    EXPECT_EQ(tight.swapOut(*f), SwapDevice::invalidSlot)
        << "swap-out past the slot budget must fail cleanly";
    EXPECT_EQ(tight.failedSwapOuts(), 1u);
    tight.discard(s1);
    EXPECT_NE(tight.swapOut(*f), SwapDevice::invalidSlot);
}

// --- deterministic fault injection ---------------------------------------

TEST_F(MemTest, FaultInjectorFailsOnNthEvent)
{
    FaultInjector inj;
    inj.failAfter(FaultPoint::FrameAlloc, 3);
    EXPECT_FALSE(inj.shouldFail(FaultPoint::FrameAlloc));
    EXPECT_FALSE(inj.shouldFail(FaultPoint::FrameAlloc));
    EXPECT_TRUE(inj.shouldFail(FaultPoint::FrameAlloc));
    // One-shot: disarms after firing.
    EXPECT_FALSE(inj.shouldFail(FaultPoint::FrameAlloc));
    EXPECT_EQ(inj.injected(FaultPoint::FrameAlloc), 1u);
    EXPECT_EQ(inj.events(FaultPoint::FrameAlloc), 4u);
}

TEST_F(MemTest, FaultInjectorPointsAreIndependent)
{
    FaultInjector inj;
    inj.failAfter(FaultPoint::SwapIn, 1);
    EXPECT_FALSE(inj.shouldFail(FaultPoint::FrameAlloc));
    EXPECT_FALSE(inj.shouldFail(FaultPoint::SwapOut));
    EXPECT_TRUE(inj.shouldFail(FaultPoint::SwapIn));
}

TEST_F(MemTest, FaultInjectorSeededReplayIsDeterministic)
{
    auto run = [](u64 seed) {
        FaultInjector inj;
        inj.failRandomly(FaultPoint::SwapOut, 5, seed);
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(inj.shouldFail(FaultPoint::SwapOut));
        return fired;
    };
    EXPECT_EQ(run(42), run(42)) << "same seed must replay identically";
    EXPECT_NE(run(42), run(43));
}

TEST_F(MemTest, DisarmedPointStillCountsEvents)
{
    FaultInjector inj;
    phys.setFaultInjector(&inj);
    Frame f;
    for (int i = 0; i < 5; ++i) {
        EXPECT_FALSE(inj.shouldFail(FaultPoint::SwapOut));
        EXPECT_FALSE(phys.injectDataLoadCorruption(0x1000));
        EXPECT_FALSE(phys.injectCapLoadCorruption(f, 0, 0x1000));
    }
    EXPECT_EQ(inj.events(FaultPoint::SwapOut), 5u);
    EXPECT_EQ(inj.events(FaultPoint::DataBitFlip), 5u);
    EXPECT_EQ(inj.events(FaultPoint::TagBitFlip), 5u);
    EXPECT_EQ(inj.totalInjected(), 0u);
    // Nth-event arming counts from the arming, whatever came before.
    inj.failAfter(FaultPoint::DataBitFlip, 2);
    EXPECT_FALSE(phys.injectDataLoadCorruption(0x1000));
    EXPECT_TRUE(phys.injectDataLoadCorruption(0x1000));
    EXPECT_EQ(inj.events(FaultPoint::DataBitFlip), 7u);
    EXPECT_EQ(inj.injected(FaultPoint::DataBitFlip), 1u);
    phys.setFaultInjector(nullptr);
}

/** Records every tap query; optionally overrides decisions. */
struct CountingTap : FaultTap
{
    std::vector<std::pair<FaultPoint, bool>> asked;
    bool forceFire = false;

    bool
    onFault(FaultPoint point, bool decision) override
    {
        asked.emplace_back(point, decision);
        return decision || forceFire;
    }
};

TEST_F(MemTest, FaultTapIsAskedOnEveryEvent)
{
    // Record/replay depends on it: a disarmed point still reaches the
    // tap, which may substitute a fired decision.
    FaultInjector inj;
    CountingTap tap;
    inj.setTap(&tap);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(inj.shouldFail(FaultPoint::DataBitFlip));
    ASSERT_EQ(tap.asked.size(), 3u);
    for (const auto &[point, decision] : tap.asked) {
        EXPECT_EQ(point, FaultPoint::DataBitFlip);
        EXPECT_FALSE(decision);
    }
    tap.forceFire = true;
    EXPECT_TRUE(inj.shouldFail(FaultPoint::DataBitFlip));
    EXPECT_EQ(inj.injected(FaultPoint::DataBitFlip), 1u);
    EXPECT_EQ(inj.events(FaultPoint::DataBitFlip), 4u);
    EXPECT_TRUE(inj.confirm(FaultPoint::DeadlockKill, false));
    EXPECT_EQ(tap.asked.size(), 5u);
    inj.setTap(nullptr);
    EXPECT_FALSE(inj.shouldFail(FaultPoint::DataBitFlip));
    EXPECT_EQ(tap.asked.size(), 5u);
}

TEST_F(MemTest, FaultObserverSeesFiredDecisionsOnly)
{
    FaultInjector inj;
    std::vector<FaultPoint> seen;
    inj.setObserver([&](FaultPoint p) { seen.push_back(p); });
    for (int i = 0; i < 4; ++i)
        inj.shouldFail(FaultPoint::FrameAlloc);
    EXPECT_TRUE(seen.empty()) << "declined decisions are not reported";
    inj.failAfter(FaultPoint::FrameAlloc, 2);
    EXPECT_FALSE(inj.shouldFail(FaultPoint::FrameAlloc));
    EXPECT_TRUE(seen.empty());
    EXPECT_TRUE(inj.shouldFail(FaultPoint::FrameAlloc));
    EXPECT_EQ(seen, std::vector<FaultPoint>{FaultPoint::FrameAlloc});
    // Kernel decisions routed through confirm() follow the same rule,
    // and so do taps that turn a declined decision into a fired one.
    EXPECT_FALSE(inj.confirm(FaultPoint::DeadlockKill, false));
    EXPECT_EQ(seen.size(), 1u);
    EXPECT_TRUE(inj.confirm(FaultPoint::DeadlockKill, true));
    CountingTap tap;
    tap.forceFire = true;
    inj.setTap(&tap);
    EXPECT_TRUE(inj.shouldFail(FaultPoint::SwapIn));
    inj.setTap(nullptr);
    EXPECT_EQ(seen, (std::vector<FaultPoint>{FaultPoint::FrameAlloc,
                                             FaultPoint::DeadlockKill,
                                             FaultPoint::SwapIn}));
}

TEST_F(MemTest, InjectedSwapInFailureKeepsSlotForRetry)
{
    FaultInjector inj;
    swap.setFaultInjector(&inj);
    u64 va = mapAnon(pageSize);
    u64 magic = 0xDEAD;
    ASSERT_FALSE(as.writeBytes(va, &magic, 8).has_value());
    ASSERT_TRUE(as.swapOutPage(va));
    inj.failAfter(FaultPoint::SwapIn, 1);
    u64 got = 0;
    CapCheck err = as.readBytes(va, &got, 8);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(*err, CapFault::SwapInFailure);
    EXPECT_EQ(as.lastWalkFault(), CapFault::SwapInFailure);
    EXPECT_EQ(swap.usedSlots(), 1u)
        << "a failed swap-in must retain the slot for retry";
    // Retry with the injector quiet: the page comes back intact.
    ASSERT_FALSE(as.readBytes(va, &got, 8).has_value());
    EXPECT_EQ(got, magic);
    EXPECT_EQ(swap.usedSlots(), 0u);
    swap.setFaultInjector(nullptr);
}

TEST_F(MemTest, ExhaustedDemandZeroRaisesMemoryExhausted)
{
    FaultInjector inj;
    phys.setFaultInjector(&inj);
    u64 va = mapAnon(pageSize);
    inj.failAfter(FaultPoint::FrameAlloc, 1);
    u64 got = 0;
    CapCheck err = as.readBytes(va, &got, 8);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(*err, CapFault::MemoryExhausted);
    EXPECT_EQ(as.lastWalkFault(), CapFault::MemoryExhausted);
    // With the injector quiet the same access succeeds.
    EXPECT_FALSE(as.readBytes(va, &got, 8).has_value());
    phys.setFaultInjector(nullptr);
}

} // namespace
} // namespace cheri
