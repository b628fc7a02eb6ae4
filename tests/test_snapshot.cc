/**
 * @file
 * Checkpoint/restore tests: round-trip fidelity under the full
 * invariant oracle, tag-exact capability register files, restore in
 * the middle of an open revocation epoch, swapped-out pages and
 * fork-shared swap slots, clean rejection of truncated/corrupt
 * images, the kernelReady wake-edge guard, and the select-deadline
 * regression (a parked select's timeout must fire exactly once on
 * the restored side).  The format pins at the end hold the CHRIIMG1
 * bytes of fixed scenarios, and the exact outcome of a corruption
 * sweep, to constants: any change to the image layout, or to what
 * restore accepts and rejects, shows up there.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"
#include "os/snapshot/snapshot.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::admitProgram;
using test::makeGuest;
using test::SchedGuest;
using test::TestSystem;

/** Restored state must satisfy every invariant the live kernel does. */
void
expectOracleClean(Kernel &kern)
{
    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().rule << ": "
        << rep.violations.front().detail;
}

/** A restored kernel must be able to boot fresh work. */
void
expectUsable(Kernel &kern)
{
    SelfObject prog = test::trivialProgram();
    EXPECT_NE(kern.spawnExec(Abi::CheriAbi, prog, {"probe"}), nullptr);
}

TEST(SnapshotTest, RoundTripIsByteStableAndPassesOracle)
{
    TestSystem sys{Abi::CheriAbi};
    // Give the image something to carry: touched anon pages, a second
    // process via fork, and a swapped-out page.
    GuestPtr buf = sys.ctx->mmap(4 * pageSize);
    for (u64 pg = 0; pg < 4; ++pg)
        sys.ctx->store<u64>(buf, pg * pageSize, 0x1111 * (pg + 1));
    // Swap out before forking: the slot becomes fork-shared, and COW
    // pages are not individually evictable afterwards.
    ASSERT_TRUE(sys.proc->as().swapOutPage(buf.addr()));
    Process *child = sys.kern.fork(*sys.proc);
    ASSERT_NE(child, nullptr);

    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;

    Kernel kern2;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    EXPECT_NE(kern2.findProcess(sys.proc->pid()), nullptr);
    EXPECT_NE(kern2.findProcess(child->pid()), nullptr);

    // Strongest fidelity check there is: the restored kernel
    // serializes to the byte-identical image.
    std::vector<u8> img2 = snap::save(kern2, &err);
    EXPECT_EQ(img, img2);

    // The restored COW child still reads the parent's pre-fork bytes
    // (page 1 stayed resident, page 0 comes back from swap).
    Process *c2 = kern2.findProcess(child->pid());
    ASSERT_NE(c2, nullptr);
    u64 v = 0;
    ASSERT_FALSE(c2->as().readBytes(buf.addr() + pageSize, &v, 8));
    EXPECT_EQ(v, 0x2222u);
    ASSERT_FALSE(c2->as().readBytes(buf.addr(), &v, 8));
    EXPECT_EQ(v, 0x1111u);
}

TEST(SnapshotTest, CapabilityRegisterFileRestoredTagExact)
{
    TestSystem sys{Abi::CheriAbi};
    GuestPtr buf = sys.ctx->mmap(pageSize);
    ThreadRegs &regs = sys.proc->regs();
    // A live tagged capability with real bounds ...
    regs.c[10] = sys.proc->as()
                     .capForRange(buf.addr(), pageSize,
                                  PROT_READ | PROT_WRITE, false)
                     .setAddress(buf.addr() + 32);
    ASSERT_TRUE(regs.c[10].tag());
    // ... an untagged pattern that must stay untagged ...
    regs.c[11] = Capability::fromAddress(0xdead1234);
    ASSERT_FALSE(regs.c[11].tag());
    // ... and a cleared-tag copy of a real capability.
    regs.c[12] = regs.c[10].withoutTag();
    regs.x[13] = 0x5151;

    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;
    Kernel kern2;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;

    Process *p2 = kern2.findProcess(sys.proc->pid());
    ASSERT_NE(p2, nullptr);
    const ThreadRegs &r2 = p2->regs();
    for (int i = 0; i < 32; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(r2.c[i].tag(), regs.c[i].tag());
        EXPECT_EQ(r2.c[i].base(), regs.c[i].base());
        EXPECT_EQ(r2.c[i].top(), regs.c[i].top());
        EXPECT_EQ(r2.c[i].address(), regs.c[i].address());
        EXPECT_EQ(r2.c[i].perms(), regs.c[i].perms());
        EXPECT_EQ(r2.c[i].otype(), regs.c[i].otype());
        EXPECT_EQ(r2.x[i], regs.x[i]);
    }
    EXPECT_TRUE(r2.c[10].tag());
    EXPECT_FALSE(r2.c[11].tag());
    EXPECT_FALSE(r2.c[12].tag());
    EXPECT_EQ(r2.pcc.tag(), regs.pcc.tag());
    EXPECT_EQ(r2.ddc.tag(), regs.ddc.tag());
}

TEST(SnapshotTest, RestoreMidOpenRevocationEpochThenDrain)
{
    TestSystem sys{Abi::CheriAbi};
    // 16 cap-dirty pages: more worklist than one incremental slice's
    // page budget, so the epoch stays open after the opening call.
    // Plain data stores don't count — only capability stores set the
    // sticky cap-dirty bit the sweep worklist is built from.
    GuestPtr buf = sys.ctx->mmap(16 * pageSize);
    u64 lo = buf.addr();
    for (u64 pg = 0; pg < 16; ++pg) {
        Capability c = sys.proc->as()
                           .capForRange(lo, 16 * pageSize,
                                        PROT_READ | PROT_WRITE, false)
                           .setAddress(lo + pg * pageSize);
        ASSERT_FALSE(
            sys.proc->as().writeCap(lo + pg * pageSize, c).has_value());
    }
    ASSERT_FALSE(sys.kern
                     .sysRevoke2(*sys.proc, {{lo, lo + 16 * pageSize}},
                                 REVOKE_INCREMENTAL)
                     .failed());
    ASSERT_EQ(sys.kern.revocationStats().epochsOpened, 1u);
    ASSERT_EQ(sys.kern.revocationStats().epochsClosed, 0u)
        << "epoch closed too early for the test to mean anything";

    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;
    Kernel kern2;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    EXPECT_EQ(kern2.revocationStats().epochsOpened, 1u);
    EXPECT_EQ(kern2.revocationStats().epochsClosed, 0u);

    // The restored epoch is live: drain it to completion over there.
    Process *p2 = kern2.findProcess(sys.proc->pid());
    ASSERT_NE(p2, nullptr);
    ASSERT_FALSE(kern2.sysRevoke2(*p2, {}, REVOKE_SYNC).failed());
    EXPECT_EQ(kern2.revocationStats().epochsClosed, 1u);
    expectOracleClean(kern2);
}

TEST(SnapshotTest, SwappedPagesAndForkSharedSlotsSurviveRestore)
{
    TestSystem sys{Abi::Mips64};
    GuestPtr buf = sys.ctx->mmap(3 * pageSize);
    for (u64 pg = 0; pg < 3; ++pg)
        sys.ctx->store<u64>(buf, pg * pageSize, 0xbeef00 + pg);
    // Swap two pages out, then fork: parent and child share the swap
    // slots (refcount 2 on the device).
    ASSERT_TRUE(sys.proc->as().swapOutPage(buf.addr()));
    ASSERT_TRUE(sys.proc->as().swapOutPage(buf.addr() + pageSize));
    Process *child = sys.kern.fork(*sys.proc);
    ASSERT_NE(child, nullptr);
    u64 slotsBefore = sys.kern.swapDevice().usedSlots();
    ASSERT_GE(slotsBefore, 2u);

    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;
    Kernel kern2;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    EXPECT_EQ(kern2.swapDevice().usedSlots(), slotsBefore);

    // Both sides fault their shared slots back in with the original
    // bytes — and the slot-refcount invariant must hold throughout.
    Process *p2 = kern2.findProcess(sys.proc->pid());
    Process *c2 = kern2.findProcess(child->pid());
    ASSERT_NE(p2, nullptr);
    ASSERT_NE(c2, nullptr);
    u64 v = 0;
    ASSERT_FALSE(c2->as().readBytes(buf.addr(), &v, 8));
    EXPECT_EQ(v, 0xbeef00u);
    ASSERT_FALSE(p2->as().readBytes(buf.addr() + pageSize, &v, 8));
    EXPECT_EQ(v, 0xbeef01u);
    expectOracleClean(kern2);
}

TEST(SnapshotTest, TruncatedImageRejectedCleanly)
{
    TestSystem sys{Abi::CheriAbi};
    GuestPtr buf = sys.ctx->mmap(2 * pageSize);
    sys.ctx->store<u64>(buf, 0, 42);
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;

    // Truncations at every depth, plus a whole image in the previous
    // format (version 2), which must be refused by its version alone.
    std::vector<std::vector<u8>> bad;
    const u64 cuts[] = {0,       7,           17,          64,
                        1000,    img.size() / 4, img.size() / 2,
                        img.size() - 1};
    for (u64 cut : cuts)
        bad.emplace_back(img.begin(), img.begin() + cut);
    bad.push_back(img);
    bad.back()[8] = 2; // little-endian imageVersion follows the magic

    Kernel kern2;
    for (const std::vector<u8> &b : bad) {
        SCOPED_TRACE(b.size());
        ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
        err.clear();
        EXPECT_FALSE(snap::restore(kern2, b, &err));
        EXPECT_FALSE(err.empty());
        // Rejected, never half-restored: the target is left empty.
        EXPECT_EQ(kern2.findProcess(sys.proc->pid()), nullptr);
        EXPECT_EQ(kern2.physMem().liveFrames(), 0u);
    }
    EXPECT_NE(err.find("unsupported image version"), std::string::npos);
    // Every rejection left the kernel in a defined state: it accepts
    // the good image afterwards and new work boots on top.
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    expectUsable(kern2);
}

TEST(SnapshotTest, CorruptImageNeverAbortsHost)
{
    TestSystem sys{Abi::Mips64};
    GuestPtr buf = sys.ctx->mmap(2 * pageSize);
    sys.ctx->store<u64>(buf, 0, 42);
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;

    // Flip one byte at offsets spread across the whole image.  Every
    // attempt must either be rejected (error text, kernel reset) or —
    // when the flip lands in a don't-care or raw data byte — restore
    // a kernel the oracle still accepts.  Never a host crash.
    Kernel kern2;
    u64 rejected = 0;
    for (u64 i = 0; i < 48; ++i) {
        u64 off = (img.size() * i) / 48;
        std::vector<u8> bad = img;
        bad[off] ^= 0x41;
        err.clear();
        if (!snap::restore(kern2, bad, &err)) {
            EXPECT_FALSE(err.empty());
            ++rejected;
        } else {
            expectOracleClean(kern2);
        }
    }
    // The magic/header flips alone guarantee some rejections.
    EXPECT_GE(rejected, 1u);
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    expectUsable(kern2);
}

#ifndef __SANITIZE_ADDRESS__
/** Restore @p honest, then @p forged, with 64 MiB more address space
 *  than the process maps now; exits 0 iff the first restores and the
 *  second is refused. */
[[noreturn]] void
restoreUnderBudget(const std::vector<u8> &honest,
                   const std::vector<u8> &forged)
{
    std::ifstream statm("/proc/self/statm");
    u64 pages = 0;
    statm >> pages;
    const rlim_t budget =
        pages * static_cast<u64>(sysconf(_SC_PAGESIZE)) + (64 << 20);
    const rlimit lim{budget, budget};
    setrlimit(RLIMIT_AS, &lim);
    Kernel kern;
    std::string err;
    bool ok = snap::restore(kern, honest, &err) &&
              !snap::restore(kern, forged, &err);
    std::exit(ok ? 0 : 1);
}
#endif

TEST(SnapshotDeathTest, ForgedVnodeCountRefusedWithinAMemoryBudget)
{
    TestSystem sys{Abi::CheriAbi};
    // A 1 MiB file: its bytes follow the vnode count in the image.
    VNodeRef big = sys.kern.vfs().createFile("/tmp/big");
    ASSERT_NE(big, nullptr);
    big->data.assign(1 << 20, 0x5a);
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;

    // The VFS section opens with its tag, the channel count (no pipes
    // here, so 0) and the vnode count.
    const u8 vfsTag[4] = {0x04, 0x41, 0x48, 0x43};
    u64 countAt = 0;
    for (u64 i = 0; i + 20 <= img.size(); ++i) {
        bool match = std::equal(vfsTag, vfsTag + 4, img.begin() + i) &&
                     std::all_of(img.begin() + i + 4, img.begin() + i + 12,
                                 [](u8 b) { return b == 0; });
        u64 n = 0;
        for (int k = 0; match && k < 8; ++k)
            n |= static_cast<u64>(img[i + 12 + k]) << (8 * k);
        if (match && n >= 1 && n <= 64) {
            EXPECT_EQ(countAt, 0u) << "two candidate VFS sections";
            countAt = i + 12;
        }
    }
    ASSERT_NE(countAt, 0u);

    // Forge the count to the bytes left, about a million.  Restore
    // creates every vnode before it reads their records, so the count
    // must be refused up front: as many vnodes as bytes left would
    // take some 200 MiB.
    const u64 left = img.size() - countAt - 8;
    std::vector<u8> bad = img;
    for (int k = 0; k < 8; ++k)
        bad[countAt + k] = static_cast<u8>(left >> (8 * k));

    // Under a 64 MiB address-space budget, the honest image restores
    // and the forged one is refused cleanly.  This runs first, while
    // the process maps no more than it needs.  (AddressSanitizer maps
    // terabytes of shadow, so no such limit can hold there.)
#ifndef __SANITIZE_ADDRESS__
    EXPECT_EXIT(restoreUnderBudget(img, bad), ::testing::ExitedWithCode(0),
                "");
#endif
    Kernel kern2;
    EXPECT_FALSE(snap::restore(kern2, bad, &err));
    EXPECT_EQ(err, "restore failed: corrupt element count");
    EXPECT_EQ(kern2.findProcess(sys.proc->pid()), nullptr);
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
}

// --- Scheduled guests across restore ---

std::pair<int, int>
sharePipe(SchedGuest &a, SchedGuest &b,
          const std::pair<VNodeRef, VNodeRef> &pipe)
{
    auto rof = std::make_shared<OpenFile>();
    rof->node = pipe.first;
    rof->flags = O_RDONLY;
    auto wof = std::make_shared<OpenFile>();
    wof->node = pipe.second;
    wof->flags = O_WRONLY;
    int rfd = a.proc->allocFd(rof);
    int wfd = a.proc->allocFd(wof);
    EXPECT_EQ(b.proc->allocFd(rof), rfd);
    EXPECT_EQ(b.proc->allocFd(wof), wfd);
    return {rfd, wfd};
}

TEST(SnapshotSchedTest, FdCloseEdgesSuppressedWhileKernelNotReady)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    SchedGuest reader = makeGuest(kern, Abi::Mips64, "guard-reader");
    SchedGuest writer = makeGuest(kern, Abi::Mips64, "guard-writer");
    auto [rfd, wfd] = sharePipe(reader, writer, Vfs::makePipe());
    (void)wfd;

    // Park the reader on the empty pipe.
    isa::Assembler rp;
    rp.syscall(static_cast<s64>(SysNum::Read)).halt();
    sched::ExecContext &rcx = admitProgram(s, reader, rp);
    rcx.interp->regs().x[4] = static_cast<u64>(rfd);
    rcx.interp->regs().x[5] = reader.data;
    rcx.interp->regs().x[6] = 16;
    kern.runUntilIdle();
    ASSERT_GE(kern.fdIoStats().blocks, 1u);
    u64 wakesBefore = kern.fdIoStats().wakes;

    // Restore-abort teardown runs closeAllFds while the kernel is
    // mid-rebuild: with kernelReady lowered, the writer-side close
    // must NOT fire a wake edge into the half-built scheduler.
    snap::setKernelReadyForTest(kern, false);
    writer.proc->closeAllFds();
    EXPECT_EQ(kern.fdIoStats().wakes, wakesBefore)
        << "close fired a wake edge during restore teardown";
    snap::setKernelReadyForTest(kern, true);

    // A normal close (kernel ready again) delivers the deferred EOF
    // semantics: the reader wakes and halts with a 0-byte read.
    reader.proc->closeFd(wfd);
    kern.runUntilIdle();
    EXPECT_EQ(rcx.last.status, isa::InterpResult::Status::Halted);
    EXPECT_EQ(rcx.interp->regs().x[regRetVal], 0u);
}

TEST(SnapshotSchedTest, SelectDeadlineAcrossRestoreFiresExactlyOnce)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    SchedGuest sel = makeGuest(kern, Abi::Mips64, "select-restore");
    SchedGuest busy = makeGuest(kern, Abi::Mips64, "busy-peer");
    auto [rfd, wfd] = sharePipe(sel, busy, Vfs::makePipe());
    (void)wfd;

    // Selector: select({rfd}, tv={600,0}) then halt.  Nothing ever
    // writes, so only the virtual-clock deadline can end it.
    u64 mask = u64{1} << rfd;
    u64 tv[2] = {600, 0};
    ASSERT_FALSE(sel.proc->as().writeBytes(sel.data, &mask, 8));
    ASSERT_FALSE(sel.proc->as().writeBytes(sel.data + 16, tv, 16));
    isa::Assembler a;
    a.syscall(static_cast<s64>(SysNum::Select)).halt();
    sched::ExecContext &cx = admitProgram(s, sel, a);
    ThreadRegs &r = cx.interp->regs();
    r.x[4] = static_cast<u64>(rfd) + 1;
    r.x[5] = sel.data;
    r.x[6] = 0;
    r.x[7] = 0;
    r.x[8] = sel.data + 16;

    // Busy peer: enough arithmetic that the selector is parked with
    // its deadline armed while slices are still being handed out.
    isa::Assembler b;
    b.li(9, 40)
        .label("spin")
        .sub(9, 9, 1)
        .bne(9, 0, "spin")
        .halt();
    admitProgram(s, busy, b);

    // Snapshot from the slice hook, the moment the selector is parked
    // (deadline armed, clock still far from 600).
    std::vector<u8> img;
    s.setSliceHook([&](Process &) {
        if (!img.empty() || kern.fdIoStats().blocks < 1)
            return;
        ASSERT_LT(s.now(), 600u);
        std::string serr;
        img = snap::save(kern, &serr);
        ASSERT_FALSE(img.empty()) << serr;
    });
    kern.runUntilIdle();
    s.setSliceHook(nullptr);
    ASSERT_FALSE(img.empty()) << "selector never parked";
    // The original timeline saw the timeout fire once.
    EXPECT_EQ(kern.fdIoStats().selectTimeouts, 1u);

    // The restored timeline must see it fire exactly once too — not
    // zero (lost deadline) and not twice (double-armed).
    Kernel kern2;
    std::string err;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    ASSERT_EQ(kern2.fdIoStats().selectTimeouts, 0u)
        << "snapshot was taken after the deadline already fired";
    kern2.runUntilIdle();
    EXPECT_EQ(kern2.fdIoStats().selectTimeouts, 1u);

    // The restored selector completed the select with 0 ready fds and
    // a cleared read set.
    Process *p2 = kern2.findProcess(sel.proc->pid());
    ASSERT_NE(p2, nullptr);
    u64 out = ~u64{0};
    ASSERT_FALSE(p2->as().readBytes(sel.data, &out, 8));
    EXPECT_EQ(out, 0u);
    expectOracleClean(kern2);
}

TEST(SnapshotTest, MetricsSnapshotSectionInV9Schema)
{
    obs::Metrics mx;
    TestSystem sys{Abi::CheriAbi};
    sys.kern.setMetrics(&mx);
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;
    EXPECT_EQ(mx.snapshot().snapshotsTaken, 1u);
    EXPECT_EQ(mx.snapshot().snapshotBytes, img.size());

    obs::Metrics mx2;
    Kernel kern2;
    kern2.setMetrics(&mx2);
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    EXPECT_EQ(mx2.snapshot().restores, 1u);
    EXPECT_EQ(mx2.snapshot().restoreFailures, 0u);
    std::vector<u8> bad(img.begin(), img.begin() + 9);
    EXPECT_FALSE(snap::restore(kern2, bad, &err));
    EXPECT_EQ(mx2.snapshot().restoreFailures, 1u);

    std::string json = mx2.toJson();
    EXPECT_NE(json.find("cheri.metrics.v9"), std::string::npos);
    EXPECT_NE(json.find("\"snapshot\""), std::string::npos);
    EXPECT_NE(json.find("\"restores\""), std::string::npos);
}

// --- Format pins ---
//
// The constants below are FNV-1a digests of CHRIIMG1 bytes (and of
// restore outcomes) for fixed scenarios.  A change to them means the
// image format moved: that needs an imageVersion bump, not a new pin.
// The scenarios open no pipes, because channel wait tokens come from a
// process-global counter and would make the bytes depend on test order.

constexpr u64 pinGuestSize = 416901;
constexpr u64 pinGuestFnv = 4714878200981800505ULL;
constexpr u64 pinSchedSize = 444198;
constexpr u64 pinSchedFnv = 18340569040244652486ULL;
constexpr u64 pinSweepFlips = 1045;
constexpr u64 pinSweepRejected = 104;
constexpr u64 pinSweepFnv = 8100616281167184169ULL;

u64
fnv1a(const void *data, u64 n, u64 h = 1469598103934665603ULL)
{
    const u8 *p = static_cast<const u8 *>(data);
    for (u64 i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

u64
fnv1a(const std::vector<u8> &v)
{
    return fnv1a(v.data(), v.size());
}

/** CheriABI guest: a 2-page mmap with one page swapped out, then a
 *  fork, so the image carries a fork-shared swap slot and COW pages. */
std::vector<u8>
pinnedGuestImage()
{
    TestSystem sys{Abi::CheriAbi};
    GuestPtr buf = sys.ctx->mmap(2 * pageSize);
    sys.ctx->store<u64>(buf, 0, 0x1111);
    sys.ctx->store<u64>(buf, pageSize, 0x2222);
    EXPECT_TRUE(sys.proc->as().swapOutPage(buf.addr()));
    EXPECT_NE(sys.kern.fork(*sys.proc), nullptr);
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    EXPECT_FALSE(img.empty()) << err;
    return img;
}

/** Two scheduled guests with a metrics registry attached, saved from
 *  the slice hook mid-run: SEC_SCHED carries live contexts and a run
 *  queue, SEC_METRICS carries syscall, mix and thread-step data. */
std::vector<u8>
pinnedSchedImage()
{
    obs::Metrics mx;
    KernelConfig cfg;
    cfg.timeSliceSteps = 16;
    Kernel kern(cfg);
    kern.setMetrics(&mx);
    sched::Scheduler &s = sched::schedulerFor(kern);

    SchedGuest a = makeGuest(kern, Abi::Mips64, "pin-spin");
    SchedGuest b = makeGuest(kern, Abi::Mips64, "pin-getpid");
    isa::Assembler pa;
    pa.li(9, 40).label("spin").sub(9, 9, 1).bne(9, 0, "spin").halt();
    admitProgram(s, a, pa);
    isa::Assembler pb;
    pb.li(9, 12)
        .label("loop")
        .syscall(static_cast<s64>(SysNum::Getpid))
        .sub(9, 9, 1)
        .bne(9, 0, "loop")
        .halt();
    admitProgram(s, b, pb);

    std::vector<u8> img;
    u64 slices = 0;
    s.setSliceHook([&](Process &) {
        if (++slices != 5)
            return;
        std::string err;
        img = snap::save(kern, &err);
        EXPECT_FALSE(img.empty()) << err;
    });
    kern.runUntilIdle();
    s.setSliceHook(nullptr);
    EXPECT_FALSE(img.empty()) << "fewer than 5 slices ran";
    return img;
}

TEST(SnapshotFormatPin, GuestImageDigest)
{
    std::vector<u8> img = pinnedGuestImage();
    EXPECT_EQ(img.size(), pinGuestSize);
    EXPECT_EQ(fnv1a(img), pinGuestFnv);
}

TEST(SnapshotFormatPin, SchedMetricsImageDigest)
{
    std::vector<u8> img = pinnedSchedImage();
    EXPECT_EQ(img.size(), pinSchedSize);
    EXPECT_EQ(fnv1a(img), pinSchedFnv);
}

TEST(SnapshotFormatPin, CorruptionSweepOutcomes)
{
    // XOR 0x41 into every 251st byte of the image's last 256 KiB and
    // restore each variant.  The sequence of outcomes ("ok" or the
    // exact error text) is pinned: which flips restore rejects, and
    // with which message, is part of the format.  Accepted variants
    // are not required to be oracle-clean: restore takes
    // invariant-violating images by design (failure artifacts are such
    // images), and `cheri_replay restore` runs the oracle afterwards.
    std::vector<u8> img = pinnedGuestImage();
    ASSERT_FALSE(img.empty());
    const u64 window = 256 * 1024;
    const u64 start = img.size() > window ? img.size() - window : 0;
    Kernel kern2;
    u64 h = fnv1a(nullptr, 0);
    u64 flips = 0, rejected = 0;
    for (u64 off = start; off < img.size(); off += 251) {
        std::vector<u8> bad = img;
        bad[off] ^= 0x41;
        std::string err;
        bool ok = snap::restore(kern2, bad, &err);
        std::string outcome = ok ? std::string("ok") : err;
        h = fnv1a(outcome.data(), outcome.size() + 1, h);
        ++flips;
        rejected += ok ? 0 : 1;
    }
    EXPECT_EQ(flips, pinSweepFlips);
    EXPECT_EQ(rejected, pinSweepRejected);
    EXPECT_EQ(h, pinSweepFnv);
    // The sweep leaves the kernel usable: the pristine image restores.
    std::string err;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
}

} // namespace
} // namespace cheri
