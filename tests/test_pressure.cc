/**
 * @file
 * Resource-exhaustion tests: ENOMEM from mmap/brk/fork/execve under
 * injected or real frame exhaustion, guest-visible faults from failed
 * swap-ins, LRU reclaim keeping constrained workloads alive, OOM-kill
 * of the largest process when swap fills, and swap-slot hygiene across
 * munmap, execve, and process exit.
 *
 * The constrained-workload budgets honour CHERI_TEST_FRAME_BUDGET and
 * CHERI_TEST_SLOT_BUDGET so CI can re-run the suite under different
 * memory pressure without a rebuild.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>

#include "obs/metrics.h"
#include "rng_util.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::TestSystem;

u64
envOr(const char *name, u64 dflt)
{
    const char *v = std::getenv(name);
    return v ? std::strtoull(v, nullptr, 0) : dflt;
}

class PressureTest : public test::SystemTest<::testing::Test>
{
  protected:
    PressureTest() : SystemTest(Abi::CheriAbi) {}
    FaultInjector &inj() { return sys.kern.faultInjector(); }
};

// --- clean ENOMEM from the syscall layer ---------------------------------

TEST_F(PressureTest, MmapFailsEnomemOnInjectedExhaustion)
{
    inj().failAfter(FaultPoint::FrameAlloc, 1);
    UserPtr out;
    SysResult r = kern().sysMmap(proc(), UserPtr::null(), pageSize,
                                 PROT_READ | PROT_WRITE,
                                 MAP_ANON | MAP_PRIVATE, &out);
    EXPECT_EQ(r.error, E_NOMEM);
    EXPECT_EQ(kern().memPressure().enomemErrors, 1u);
    // Injector is one-shot: the retry succeeds.
    r = kern().sysMmap(proc(), UserPtr::null(), pageSize,
                       PROT_READ | PROT_WRITE, MAP_ANON | MAP_PRIVATE,
                       &out);
    EXPECT_EQ(r.error, E_OK);
}

TEST(PressureBrk, BrkFailsEnomemOnInjectedExhaustion)
{
    TestSystem sys(Abi::Mips64); // sbrk is mips64-only
    sys.kern.faultInjector().failAfter(FaultPoint::FrameAlloc, 1);
    EXPECT_EQ(sys.kern.sysSbrk(*sys.proc, 4096).error, E_NOMEM);
    EXPECT_EQ(sys.kern.memPressure().enomemErrors, 1u);
    EXPECT_EQ(sys.kern.sysSbrk(*sys.proc, 4096).error, E_OK);
}

TEST_F(PressureTest, ForkFailsEnomemOnInjectedExhaustion)
{
    inj().failAfter(FaultPoint::FrameAlloc, 1);
    EXPECT_EQ(kern().fork(proc()), nullptr);
    EXPECT_EQ(kern().memPressure().enomemErrors, 1u);
    Process *child = kern().fork(proc());
    ASSERT_NE(child, nullptr);
    kern().exitProcess(*child, 0);
    EXPECT_EQ(kern().wait4(proc(), child->pid()).error, E_OK);
}

TEST_F(PressureTest, ExecveFailsEnomemAndLeavesProcessRunnable)
{
    inj().failAfter(FaultPoint::FrameAlloc, 1);
    EXPECT_EQ(kern().execve(proc(), sys.prog, {"testprog"}, {}),
              E_NOMEM);
    // The old image must be untouched: the process keeps running.
    EXPECT_GE(ctx().getpid(), 0);
}

// --- guest-visible faults, never host aborts -----------------------------

TEST_F(PressureTest, CopyinSwapInFailureIsEfaultAndRetries)
{
    GuestPtr buf = ctx().mmap(pageSize);
    const char msg[] = "survives the swap";
    ctx().write(buf, msg, sizeof(msg));
    ASSERT_TRUE(proc().as().swapOutPage(buf.addr() & ~(pageSize - 1)));
    u64 slots = kern().swapDevice().usedSlots();
    ASSERT_GE(slots, 1u);

    inj().failAfter(FaultPoint::SwapIn, 1);
    char out[sizeof(msg)] = {};
    EXPECT_EQ(kern().copyin(proc(), ctx().toUser(buf), out, sizeof(msg)),
              E_FAULT);
    EXPECT_EQ(kern().swapDevice().usedSlots(), slots)
        << "failed swap-in must keep the slot for retry";
    ASSERT_EQ(kern().copyin(proc(), ctx().toUser(buf), out, sizeof(msg)),
              E_OK);
    EXPECT_STREQ(out, msg);
}

TEST_F(PressureTest, CopyoutSwapInFailureIsEfault)
{
    GuestPtr buf = ctx().mmap(pageSize);
    u8 b = 1;
    ctx().write(buf, &b, 1);
    ASSERT_TRUE(proc().as().swapOutPage(buf.addr() & ~(pageSize - 1)));
    inj().failAfter(FaultPoint::SwapIn, 1);
    u8 junk[8] = {};
    EXPECT_EQ(kern().copyout(proc(), junk, ctx().toUser(buf), 8),
              E_FAULT);
    EXPECT_EQ(kern().copyout(proc(), junk, ctx().toUser(buf), 8), E_OK);
}

TEST_F(PressureTest, ExhaustedDemandZeroFaultsInsteadOfAborting)
{
    GuestPtr buf = ctx().mmap(pageSize);
    inj().failAfter(FaultPoint::FrameAlloc, 1);
    // The first touch of a demand-zero page needs a frame; exhaustion
    // must surface as a capability trap, not a host-side abort.
    EXPECT_THROW(ctx().load<u64>(buf), CapTrap);
    EXPECT_EQ(proc().as().lastWalkFault(), CapFault::MemoryExhausted);
    EXPECT_EQ(ctx().load<u64>(buf), 0u) << "retry succeeds";
}

// --- reclaim keeps constrained workloads alive ---------------------------

TEST_F(PressureTest, ReclaimSatisfiesConstrainedWorkload)
{
    PhysMem &phys = kern().physMem();
    SwapDevice &swapdev = kern().swapDevice();
    u64 booted = phys.liveFrames();
    u64 frame_budget = envOr("CHERI_TEST_FRAME_BUDGET", booted + 16);
    // The booted image is the floor: a budget below it would make the
    // working-set arithmetic meaningless (and starve the fixture).
    frame_budget = std::max(frame_budget, booted + 8);
    u64 slot_budget = envOr("CHERI_TEST_SLOT_BUDGET", 512);
    phys.setCapacity(frame_budget);
    swapdev.setSlotBudget(slot_budget);

    // Working set of 3x the headroom: only reclaim can service it.
    u64 pages = 3 * (frame_budget - booted);
    GuestPtr buf = ctx().mmap(pages * pageSize);
    for (u64 p = 0; p < pages; ++p) {
        ctx().store<u64>(buf, static_cast<s64>(p * pageSize), p ^ 0xABu);
        ASSERT_LE(phys.liveFrames(), frame_budget)
            << "frame budget breached at page " << p;
        ASSERT_LE(swapdev.usedSlots(), slot_budget);
    }
    for (u64 p = 0; p < pages; ++p) {
        ASSERT_EQ(ctx().load<u64>(buf, static_cast<s64>(p * pageSize)),
                  p ^ 0xABu)
            << "data lost across reclaim at page " << p;
        ASSERT_LE(phys.liveFrames(), frame_budget);
    }
    EXPECT_GT(kern().memPressure().reclaimPasses, 0u);
    EXPECT_GT(kern().memPressure().pagesReclaimed, 0u);
    EXPECT_EQ(kern().memPressure().oomKills, 0u)
        << "a swappable workload must survive without OOM kills";
}

// --- swap-full OOM kill --------------------------------------------------

TEST_F(PressureTest, SwapFullOomKillsLargestProcess)
{
    obs::Metrics m;
    kern().setMetrics(&m);
    // A second, bigger process: the designated victim.
    Process *big = kern().spawnExec(Abi::CheriAbi, sys.prog, {"big"});
    ASSERT_NE(big, nullptr);
    GuestContext bctx(kern(), *big);
    GuestPtr bbuf = bctx.mmap(24 * pageSize);
    for (u64 p = 0; p < 24; ++p)
        bctx.store<u64>(bbuf, static_cast<s64>(p * pageSize), p);

    // Clamp memory almost shut: reclaim can only swap 2 pages, so the
    // next burst of demand-zero faults must fall back to the OOM killer.
    kern().physMem().setCapacity(kern().physMem().liveFrames() + 4);
    kern().swapDevice().setSlotBudget(2);

    GuestPtr buf = ctx().mmap(10 * pageSize);
    for (u64 p = 0; p < 10; ++p)
        ctx().store<u64>(buf, static_cast<s64>(p * pageSize), p);

    EXPECT_GE(kern().memPressure().oomKills, 1u);
    EXPECT_TRUE(big->exited()) << "the largest process is the victim";
    ASSERT_TRUE(big->death().has_value());
    EXPECT_EQ(big->death()->signal, SIG_KILL);
    EXPECT_EQ(big->death()->fault, CapFault::MemoryExhausted);
    EXPECT_FALSE(proc().exited())
        << "the requesting process must never be the victim";
    for (u64 p = 0; p < 10; ++p)
        EXPECT_EQ(ctx().load<u64>(buf, static_cast<s64>(p * pageSize)),
                  p);
    EXPECT_NE(m.toJson().find("\"oom_kills\":" +
                              std::to_string(kern().memPressure().oomKills)),
              std::string::npos);
    kern().setMetrics(nullptr);
}

// --- swap-slot hygiene ---------------------------------------------------

TEST_F(PressureTest, ExitWhileSwappedReturnsSlotsToBaseline)
{
    u64 baseline = kern().swapDevice().usedSlots();
    Process *child = kern().fork(proc());
    ASSERT_NE(child, nullptr);
    u64 va = child->as().map(0, 8 * pageSize, PROT_READ | PROT_WRITE,
                             MappingKind::Data);
    ASSERT_NE(va, 0u);
    u8 b = 1;
    for (u64 p = 0; p < 8; ++p)
        ASSERT_FALSE(child->as()
                         .writeBytes(va + p * pageSize, &b, 1)
                         .has_value());
    ASSERT_GE(child->as().swapOutResident(8), 1u);
    ASSERT_GT(kern().swapDevice().usedSlots(), baseline);

    kern().exitProcess(*child, 0);
    EXPECT_EQ(kern().swapDevice().usedSlots(), baseline)
        << "exit must release swapped pages eagerly";
    EXPECT_EQ(kern().wait4(proc(), child->pid()).error, E_OK);
    EXPECT_EQ(kern().swapDevice().usedSlots(), baseline);
}

TEST_F(PressureTest, ExecveWhileSwappedReturnsSlotsToBaseline)
{
    u64 baseline = kern().swapDevice().usedSlots();
    GuestPtr buf = ctx().mmap(4 * pageSize);
    for (u64 p = 0; p < 4; ++p)
        ctx().store<u8>(buf, static_cast<s64>(p * pageSize), 1);
    ASSERT_GE(proc().as().swapOutResident(4), 1u);
    ASSERT_GT(kern().swapDevice().usedSlots(), baseline);

    ASSERT_EQ(kern().execve(proc(), sys.prog, {"testprog"}, {}), E_OK);
    EXPECT_EQ(kern().swapDevice().usedSlots(), baseline)
        << "execve must not leak the old image's swap slots";
}

TEST_F(PressureTest, MunmapWhileSwappedReturnsSlotsToBaseline)
{
    u64 baseline = kern().swapDevice().usedSlots();
    GuestPtr buf = ctx().mmap(2 * pageSize);
    ctx().store<u8>(buf, 0, 1);
    ctx().store<u8>(buf, static_cast<s64>(pageSize), 1);
    u64 page0 = buf.addr() & ~(pageSize - 1);
    ASSERT_TRUE(proc().as().swapOutPage(page0));
    ASSERT_TRUE(proc().as().swapOutPage(page0 + pageSize));
    ASSERT_EQ(kern().swapDevice().usedSlots(), baseline + 2);
    ASSERT_EQ(ctx().munmap(buf, 2 * pageSize), E_OK);
    EXPECT_EQ(kern().swapDevice().usedSlots(), baseline);
}

TEST_F(PressureTest, ForkWhileSwappedSharesSlotsWithoutLoss)
{
    u64 baseline = kern().swapDevice().usedSlots();
    GuestPtr buf = ctx().mmap(4 * pageSize);
    for (u64 p = 0; p < 4; ++p)
        ctx().store<u64>(buf, static_cast<s64>(p * pageSize), p + 7);
    // Evict the parent's pages before forking — exactly the state the
    // fork admission probe's reclaim pass can leave the parent in right
    // before forkCopy duplicates its page table.
    u64 page0 = buf.addr() & ~(pageSize - 1);
    for (u64 p = 0; p < 4; ++p)
        ASSERT_TRUE(proc().as().swapOutPage(page0 + p * pageSize));
    ASSERT_EQ(kern().swapDevice().usedSlots(), baseline + 4);

    Process *child = kern().fork(proc());
    ASSERT_NE(child, nullptr);
    GuestContext cctx(kern(), *child);
    // Whichever side faults first must not erase the other's copy.
    for (u64 p = 0; p < 4; ++p)
        EXPECT_EQ(cctx.load<u64>(buf, static_cast<s64>(p * pageSize)),
                  p + 7);
    for (u64 p = 0; p < 4; ++p)
        EXPECT_EQ(ctx().load<u64>(buf, static_cast<s64>(p * pageSize)),
                  p + 7);
    kern().exitProcess(*child, 0);
    ASSERT_EQ(kern().wait4(proc(), child->pid()).error, E_OK);
    EXPECT_EQ(kern().swapDevice().usedSlots(), baseline)
        << "shared slots must be released once both sides resolve";
}

// PR 3 regression, now with the failure path exercised: fork shares
// swap slots by refcount, and a child's *failed* swap-in must leave the
// shared slot fully intact for both sides to retry.
TEST_F(PressureTest, ForkWhileSwappedSlotSharingSurvivesSwapInFault)
{
    u64 baseline = kern().swapDevice().usedSlots();
    GuestPtr buf = ctx().mmap(2 * pageSize);
    ctx().store<u64>(buf, 0, 41);
    ctx().store<u64>(buf, static_cast<s64>(pageSize), 42);
    u64 page0 = buf.addr() & ~(pageSize - 1);
    ASSERT_TRUE(proc().as().swapOutPage(page0));
    ASSERT_TRUE(proc().as().swapOutPage(page0 + pageSize));
    ASSERT_EQ(kern().swapDevice().usedSlots(), baseline + 2);

    Process *child = kern().fork(proc());
    ASSERT_NE(child, nullptr);
    auto countShared = [&] {
        u64 n = 0;
        kern().swapDevice().forEachSlot([&](u64, u64 refs) {
            if (refs == 2)
                ++n;
        });
        return n;
    };
    EXPECT_EQ(countShared(), 2u)
        << "fork must share the slots (refcount 2), not steal them";

    GuestContext cctx(kern(), *child);
    inj().failAfter(FaultPoint::SwapIn, 1);
    EXPECT_THROW(cctx.load<u64>(buf), CapTrap);
    EXPECT_EQ(child->as().lastWalkFault(), CapFault::SwapInFailure);
    EXPECT_EQ(countShared(), 2u)
        << "a failed swap-in must not drop either side's slot reference";

    EXPECT_EQ(cctx.load<u64>(buf), 41u);
    EXPECT_EQ(cctx.load<u64>(buf, static_cast<s64>(pageSize)), 42u);
    EXPECT_EQ(ctx().load<u64>(buf), 41u);
    EXPECT_EQ(ctx().load<u64>(buf, static_cast<s64>(pageSize)), 42u);
    kern().exitProcess(*child, 0);
    ASSERT_EQ(kern().wait4(proc(), child->pid()).error, E_OK);
    EXPECT_EQ(kern().swapDevice().usedSlots(), baseline);
}

// PR 3 regression: installFrame (the shmat mechanism) over a page that
// is currently swapped out must release the orphaned device slot.
TEST_F(PressureTest, InstallFrameOverSwappedPageReleasesItsSlot)
{
    u64 baseline = kern().swapDevice().usedSlots();
    GuestPtr buf = ctx().mmap(pageSize);
    ctx().store<u64>(buf, 0, 7);
    u64 page0 = buf.addr() & ~(pageSize - 1);
    ASSERT_TRUE(proc().as().swapOutPage(page0));
    ASSERT_EQ(kern().swapDevice().usedSlots(), baseline + 1);

    FrameRef shared = kern().physMem().allocFrame();
    ASSERT_TRUE(shared);
    ASSERT_TRUE(proc().as().installFrame(page0, shared));
    EXPECT_EQ(kern().swapDevice().usedSlots(), baseline)
        << "the replaced page's swap slot must not leak";
    // The page now reads through the shared frame (demand-zero).
    EXPECT_EQ(ctx().load<u64>(buf), 0u);
}

// Satellite of the fallible-signal-frame change: a handler whose frame
// spill lands on a swapped-out stack page whose swap-in fails must
// produce a counted guest fault and kill the process — never reach the
// handler, never abort the host.
TEST_F(PressureTest, SignalFrameSpillSwapInFailureIsCountedGuestFault)
{
    obs::Metrics m;
    kern().setMetrics(&m);
    bool handler_ran = false;
    u64 hid = proc().registerHandler(
        [&](Process &, SigFrame &) { handler_ran = true; });
    kern().sysSigaction(proc(), SIG_USR1,
                        {SigAction::Kind::Handler, hid});

    // The frame lands just below the stack pointer; evict every page it
    // can touch so the spill's first write needs a swap-in.
    u64 sp = proc().regs().stack().address();
    u64 lo = (sp - 1024) & ~(pageSize - 1);
    u64 evicted = 0;
    for (u64 va = lo; va < sp; va += pageSize)
        evicted += proc().as().swapOutPage(va) ? 1 : 0;
    ASSERT_GE(evicted, 1u);

    inj().failAfter(FaultPoint::SwapIn, 1);
    proc().raiseSignal(SIG_USR1);
    EXPECT_EQ(kern().deliverSignals(proc()), 0u);

    EXPECT_FALSE(handler_ran)
        << "the handler must not run on a frame that could not spill";
    ASSERT_TRUE(proc().exited());
    ASSERT_TRUE(proc().death().has_value());
    EXPECT_EQ(proc().death()->fault, CapFault::SwapInFailure);
    EXPECT_EQ(proc().death()->signal, SIG_USR1);
    EXPECT_GE(m.faultCount(CapFault::SwapInFailure), 1u)
        << "the spill failure must be a *counted* guest fault";
    kern().setMetrics(nullptr);
}

// --- randomized slot accounting (seeded; corpus via env) -----------------

class PressureRandom : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PressureRandom, RandomSwapTrafficKeepsSlotAccounting)
{
    CHERI_TRACE_SEED(GetParam(), "CHERI_TEST_PRESSURE_SEEDS");
    std::mt19937_64 rng(GetParam());
    TestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    u64 baseline = sys.kern.swapDevice().usedSlots();

    const u64 pages = 8;
    GuestPtr buf = ctx.mmap(pages * pageSize);
    u64 page0 = buf.addr() & ~(pageSize - 1);
    std::vector<u64> shadow(pages, 0);
    for (int step = 0; step < 200; ++step) {
        u64 p = rng() % pages;
        switch (rng() % 3) {
          case 0: {
            u64 v = rng();
            ctx.store<u64>(buf, static_cast<s64>(p * pageSize), v);
            shadow[p] = v;
            break;
          }
          case 1:
            sys.proc->as().swapOutPage(page0 + p * pageSize);
            break;
          case 2:
            ASSERT_EQ(ctx.load<u64>(buf,
                                    static_cast<s64>(p * pageSize)),
                      shadow[p]);
            break;
        }
        // Every device slot must be referenced by exactly the PTEs
        // that name it — a slot can never outlive or outnumber them.
        ASSERT_LE(sys.kern.swapDevice().usedSlots(), baseline + pages);
    }
    for (u64 p = 0; p < pages; ++p)
        ASSERT_EQ(ctx.load<u64>(buf, static_cast<s64>(p * pageSize)),
                  shadow[p]);
    ASSERT_EQ(ctx.munmap(buf, pages * pageSize), E_OK);
    EXPECT_EQ(sys.kern.swapDevice().usedSlots(), baseline);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PressureRandom,
    ::testing::ValuesIn(
        test::seedsFromEnv("CHERI_TEST_PRESSURE_SEEDS", 4)));

// --- observability -------------------------------------------------------

TEST_F(PressureTest, MetricsExportMemoryPressureSection)
{
    obs::Metrics m;
    kern().setMetrics(&m);
    inj().failAfter(FaultPoint::FrameAlloc, 1);
    UserPtr out;
    ASSERT_EQ(kern()
                  .sysMmap(proc(), UserPtr::null(), pageSize,
                           PROT_READ | PROT_WRITE,
                           MAP_ANON | MAP_PRIVATE, &out)
                  .error,
              E_NOMEM);
    EXPECT_EQ(kern().memPressure().enomemErrors, 1u);
    std::string json = m.toJson();
    EXPECT_NE(json.find("cheri.metrics.v9"), std::string::npos);
    EXPECT_NE(json.find("\"memory\""), std::string::npos);
    EXPECT_NE(json.find("\"enomem\":1"), std::string::npos);
    kern().setMetrics(nullptr);
}

TEST_F(PressureTest, KernelConfigBudgetsAreWired)
{
    KernelConfig cfg;
    cfg.frameCapacity = 128;
    cfg.swapSlotBudget = 64;
    TestSystem limited(Abi::CheriAbi, cfg);
    EXPECT_EQ(limited.kern.physMem().frameCapacity(), 128u);
    EXPECT_EQ(limited.kern.swapDevice().slotBudget(), 64u);
}

} // namespace
} // namespace cheri
