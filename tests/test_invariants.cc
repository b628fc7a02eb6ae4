/**
 * @file
 * Oracle rule coverage: each test plants exactly one defect below the
 * syscall layer (something no architectural path could produce) and
 * pins the exact rule name and detail text the oracle reports — plus
 * the order of violations when one process trips a memory-capability
 * rule and a page-table rule in the same pass.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "os/kernel.h"
#include "os/snapshot/snapshot.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::GuestSystem;

/** printf into a std::string (expected detail text). */
template <typename... Args>
std::string
format(const char *f, Args... args)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf), f, args...);
    return buf;
}

/** A tagged data capability no principal's root can dominate (no
 *  sealing permissions: sealers are exempt from containment). */
Capability
outOfRootCap()
{
    return Capability::root()
        .setAddress(AddressSpace::userTop + 0x1000)
        .setBounds(64)
        .value()
        .andPerms(PERM_LOAD | PERM_STORE)
        .value();
}

/** The one violation of @p rep, failing the test unless there is
 *  exactly one. */
check::Violation
onlyViolation(const check::Report &rep)
{
    EXPECT_EQ(rep.violations.size(), 1u) << rep.toString();
    return rep.violations.empty() ? check::Violation{} : rep.violations[0];
}

TEST(InvariantRules, CleanSystemHasNoViolations)
{
    GuestSystem sys(Abi::CheriAbi);
    check::Report rep = check::Invariants::check(sys.kern);
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(InvariantRules, OutOfRootCapInMemoryIsContainmentViolation)
{
    GuestSystem sys(Abi::CheriAbi);
    AddressSpace &as = sys.proc->as();
    u64 va = as.map(0, pageSize, PROT_READ | PROT_WRITE, MappingKind::Data);
    ASSERT_NE(va, 0u);
    Capability evil = outOfRootCap();
    ASSERT_FALSE(as.writeCap(va + 0x40, evil).has_value());

    check::Violation v = onlyViolation(check::Invariants::check(sys.kern));
    EXPECT_EQ(v.rule, "cap-containment");
    EXPECT_EQ(v.detail,
              format("pid %" PRIu64 " mem @0x%" PRIx64 ": %s outside root",
                     sys.proc->pid(), va + 0x40, evil.toString().c_str()));
}

TEST(InvariantRules, OutOfRootCapInRegisterIsContainmentViolation)
{
    GuestSystem sys(Abi::CheriAbi);
    Capability evil = outOfRootCap();
    sys.proc->regs().c[17] = evil;

    check::Violation v = onlyViolation(check::Invariants::check(sys.kern));
    EXPECT_EQ(v.rule, "cap-containment");
    EXPECT_EQ(v.detail,
              format("pid %" PRIu64 " regs c17: %s outside root %s",
                     sys.proc->pid(), evil.toString().c_str(),
                     sys.proc->as().rederivationRoot().toString().c_str()));
}

TEST(InvariantRules, OutOfRootCapInSavedThreadContextNamesTheThread)
{
    GuestSystem sys(Abi::CheriAbi);
    SysResult t = sys.kern.sysThrNew(*sys.proc);
    ASSERT_FALSE(t.failed());
    Capability evil = outOfRootCap();
    sys.proc->forEachThread([&](ThreadRecord &rec) {
        if (rec.tid == t.value)
            rec.saved.c[5] = evil;
    });

    check::Violation v = onlyViolation(check::Invariants::check(sys.kern));
    EXPECT_EQ(v.rule, "cap-containment");
    EXPECT_EQ(v.detail,
              format("pid %" PRIu64 " tid %" PRIu64 " c5: %s outside root %s",
                     sys.proc->pid(), t.value, evil.toString().c_str(),
                     sys.proc->as().rederivationRoot().toString().c_str()));
}

TEST(InvariantRules, UnaccountedFrameBreaksLiveCount)
{
    GuestSystem sys(Abi::CheriAbi);
    u64 live = sys.kern.physMem().liveFrames();
    // A frame held outside every page table and SysV segment.
    FrameRef stray = sys.kern.physMem().allocFrame();
    ASSERT_NE(stray, nullptr);

    check::Violation v = onlyViolation(check::Invariants::check(sys.kern));
    EXPECT_EQ(v.rule, "frame-live-count");
    EXPECT_EQ(v.detail,
              format("page tables + shm reference %" PRIu64
                     " frames, PhysMem reports %" PRIu64 " live",
                     live, live + 1));
}

TEST(InvariantRules, SlotNoPteNamesIsLeaked)
{
    GuestSystem sys(Abi::CheriAbi);
    Frame orphan;
    u64 slot = sys.kern.swapDevice().swapOut(orphan);
    ASSERT_NE(slot, SwapDevice::invalidSlot);

    check::Violation v = onlyViolation(check::Invariants::check(sys.kern));
    EXPECT_EQ(v.rule, "slot-leaked");
    EXPECT_EQ(v.detail,
              format("slot %" PRIu64
                     " occupied (refs 1) but no PTE references it",
                     slot));
    sys.kern.swapDevice().discard(slot);
}

/** Offset of the image record of the PTE for @p va with protection
 *  @p prot that is resident (nonzero frame id) and not swapped; -1
 *  unless exactly one such record exists.  Record layout: va (u64),
 *  frame id (u32), prot (u32), cow, shared, swapped (bools), swap slot
 *  (u64), all little-endian. */
long
findResidentPteRecord(const std::vector<u8> &img, u64 va, u32 prot)
{
    auto le = [&](size_t at, unsigned bytes) {
        u64 v = 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= u64{img[at + i]} << (8 * i);
        return v;
    };
    long found = -1;
    for (size_t at = 0; at + 27 <= img.size(); ++at) {
        if (le(at, 8) != va || le(at + 8, 4) == 0 ||
            le(at + 12, 4) != prot || img[at + 18] != 0)
            continue;
        if (found != -1)
            return -1;
        found = static_cast<long>(at);
    }
    return found;
}

TEST(InvariantRules, MemoryCapViolationsPrecedePteViolations)
{
    // One process, two defects on two pages: the page-table rule on the
    // LOWER page, the memory-capability rule on the higher one.  The
    // report lists memory-capability violations first regardless of
    // page order.
    GuestSystem sys(Abi::CheriAbi);
    AddressSpace &as = sys.proc->as();
    u32 prot = PROT_READ | PROT_WRITE;
    u64 va = as.map(0, 2 * pageSize, prot, MappingKind::Data);
    ASSERT_NE(va, 0u);
    ASSERT_FALSE(as.writeBytes(va, "x", 1).has_value());
    Capability evil = outOfRootCap();
    ASSERT_FALSE(as.writeCap(va + pageSize, evil).has_value());

    // A PTE both resident and swapped cannot be produced through the
    // AddressSpace API; plant it by corrupting a checkpoint image.
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;
    long at = findResidentPteRecord(img, va, prot);
    ASSERT_GE(at, 0) << "PTE record for the lower page not unique";
    const u64 bogusSlot = 0x5107;
    img[at + 18] = 1; // swapped
    for (unsigned i = 0; i < 8; ++i)
        img[at + 19 + i] = static_cast<u8>(bogusSlot >> (8 * i));

    Kernel restored;
    ASSERT_TRUE(snap::restore(restored, img, &err)) << err;
    Process *proc = restored.findProcess(sys.proc->pid());
    ASSERT_NE(proc, nullptr);

    check::Report rep = check::Invariants::check(restored);
    ASSERT_EQ(rep.violations.size(), 2u) << rep.toString();
    EXPECT_EQ(rep.violations[0].rule, "cap-containment");
    EXPECT_EQ(rep.violations[0].detail,
              format("pid %" PRIu64 " mem @0x%" PRIx64 ": %s outside root",
                     proc->pid(), va + pageSize, evil.toString().c_str()));
    EXPECT_EQ(rep.violations[1].rule, "pte-resident-and-swapped");
    EXPECT_EQ(rep.violations[1].detail,
              format("pid %" PRIu64 " va 0x%" PRIx64
                     " holds both a frame and slot %" PRIu64,
                     proc->pid(), va, bogusSlot));
}

} // namespace
} // namespace cheri
