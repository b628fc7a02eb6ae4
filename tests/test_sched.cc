/**
 * @file
 * Kernel scheduler tests: preemptive time slices, blocking syscalls,
 * and the unified execution engine's state-preservation guarantees.
 *
 * Four properties from the scheduler's contract:
 *
 *  - preemption is fair: identical CPU-bound guests share the engine
 *    round-robin, one time slice each, never starving;
 *  - wait4 truly blocks: a parent with live children parks off the run
 *    queue and is woken exactly once per child exit;
 *  - context switches preserve capability register files tag-exact —
 *    including while an incremental revocation epoch is open, with the
 *    whole-system invariant oracle consulted at every slice boundary;
 *  - the per-context decode cache survives preemption: each distinct
 *    instruction is decoded once for the life of the thread, however
 *    many slices (and ABIs) interleave.
 *
 * Plus the metrics registry's view of the scheduler's counters, which
 * it reads in place: a registry that outlives its kernels keeps their
 * counts, and a kernel moved between registries is counted once.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/revocation.h"
#include "os/sched/sched.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::admitProgram;
using test::makeGuest;
using test::SchedGuest;

/** A pure-ALU loop of @p iters iterations with @p body distinct adds
 *  per iteration. */
isa::Assembler
aluLoop(u64 iters, u64 body = 8)
{
    isa::Assembler a;
    a.li(3, static_cast<s64>(iters)).label("loop");
    for (u64 i = 0; i < body; ++i)
        a.addi(4 + (i % 8), 4 + (i % 8), 1);
    a.addi(3, 3, -1).bne(3, 0, "loop").halt();
    return a;
}

TEST(SchedTest, RoundRobinPreemptionIsFair)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 64;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    std::vector<u64> pids;
    isa::Assembler prog = aluLoop(200);
    for (int i = 0; i < 3; ++i) {
        SchedGuest g = makeGuest(kern, Abi::Mips64, "rr-guest", 4);
        admitProgram(s, g, prog, 0);
        pids.push_back(g.proc->pid());
    }

    std::vector<u64> sliceOrder;
    s.setSliceHook([&](Process &p) { sliceOrder.push_back(p.pid()); });
    kern.runUntilIdle();
    s.setSliceHook(nullptr);

    // All three ran to completion...
    for (u64 pid : pids) {
        Process *p = kern.findProcess(pid);
        ASSERT_NE(p, nullptr);
        sched::ExecContext &cx = s.context(*p);
        EXPECT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    }
    // ...and the identical programs interleaved round-robin: while all
    // three are runnable, every window of three slices runs all three
    // pids (no starvation, no double turns).
    ASSERT_GE(sliceOrder.size(), 9u);
    for (size_t w = 0; w + 3 <= 9; w += 3) {
        std::map<u64, int> seen;
        for (size_t i = w; i < w + 3; ++i)
            ++seen[sliceOrder[i]];
        for (u64 pid : pids)
            EXPECT_EQ(seen[pid], 1)
                << "window at " << w << " starved pid " << pid;
    }
    // Identical programs get slice counts within one of each other.
    std::map<u64, u64> counts;
    for (u64 pid : sliceOrder)
        ++counts[pid];
    u64 lo = ~u64(0), hi = 0;
    for (u64 pid : pids) {
        lo = std::min(lo, counts[pid]);
        hi = std::max(hi, counts[pid]);
    }
    EXPECT_LE(hi - lo, 1u);

    const SchedStats &st = s.stats();
    EXPECT_GT(st.preemptions, 0u);
    EXPECT_GT(st.contextSwitches, 0u);
    EXPECT_EQ(st.slices, sliceOrder.size());
}

TEST(SchedTest, BlockingWait4WakesOncePerChildExit)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 64;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);
    SchedGuest g = makeGuest(kern, Abi::Mips64, "waiter", 4);

    // fork twice, then reap twice through blocking wait4(0).  The
    // children spin different lengths so their exits stagger; the
    // parent parks on each wait4 and is woken by each exit edge.
    isa::Assembler a;
    a.syscall(static_cast<s64>(SysNum::Fork))
        .bne(3, 0, "parentA")
        // child 1: the long spinner, exit status 7.
        .li(9, 2000)
        .label("spin1")
        .addi(9, 9, -1)
        .bne(9, 0, "spin1")
        .li(4, 7)
        .syscall(static_cast<s64>(SysNum::Exit))
        .label("parentA")
        .move(5, 3) // x5 = child 1 pid
        .syscall(static_cast<s64>(SysNum::Fork))
        .bne(3, 0, "parentB")
        // child 2: the short spinner, exit status 9.
        .li(9, 600)
        .label("spin2")
        .addi(9, 9, -1)
        .bne(9, 0, "spin2")
        .li(4, 9)
        .syscall(static_cast<s64>(SysNum::Exit))
        .label("parentB")
        .move(6, 3) // x6 = child 2 pid
        .li(4, 0)
        .syscall(static_cast<s64>(SysNum::Wait4))
        .move(7, 3) // x7 = first reaped pid
        .li(4, 0)
        .syscall(static_cast<s64>(SysNum::Wait4))
        .move(8, 3) // x8 = second reaped pid
        .halt();

    sched::ExecContext &cx = admitProgram(s, g, a, 0);
    kern.runUntilIdle();

    ASSERT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    const ThreadRegs &r = cx.interp->regs();
    u64 c1 = r.x[5], c2 = r.x[6];
    ASSERT_NE(c1, 0u);
    ASSERT_NE(c2, 0u);
    ASSERT_NE(c1, c2);
    // The short spinner exits (and is reaped) first; both reaps
    // returned a real child, no E_CHILD polling.
    EXPECT_EQ(r.x[7], c2);
    EXPECT_EQ(r.x[8], c1);
    // Both children are gone from the process table.
    EXPECT_EQ(kern.findProcess(c1), nullptr);
    EXPECT_EQ(kern.findProcess(c2), nullptr);

    // The parent blocked once per outstanding child and was woken
    // exactly once per child exit.
    const SchedStats &st = s.stats();
    EXPECT_EQ(st.blocksWait4, 2u);
    EXPECT_EQ(st.wakes, 2u);
}

TEST(SchedTest, SleepBlocksUntilVirtualDeadline)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);
    SchedGuest g = makeGuest(kern, Abi::Mips64, "sleeper", 4);

    isa::Assembler a;
    a.li(4, 1000).syscall(static_cast<s64>(SysNum::Sleep)).halt();
    sched::ExecContext &cx = admitProgram(s, g, a, 0);
    kern.runUntilIdle();

    EXPECT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    const SchedStats &st = s.stats();
    EXPECT_EQ(st.blocksSleep, 1u);
    EXPECT_EQ(st.wakes, 1u);
    // With nothing else runnable the virtual clock jumped to the
    // deadline instead of spinning.
    EXPECT_GE(st.idleAdvances, 1u);
    EXPECT_GE(s.now(), 1000u);
}

TEST(SchedTest, CapRegsSurviveSwitchesTagExactAcrossOpenEpoch)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    cfg.revokeSliceBudget = 2;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    // Guest A (CheriABI) derives capabilities into its register file,
    // cap-dirties its data page, then spins long enough to be
    // preempted dozens of times.
    SchedGuest ga = makeGuest(kern, Abi::CheriAbi, "cap-guest", 4);
    isa::Assembler a;
    a.csetboundsimm(2, 1, 64)    // c2 = c1 bounded to 64 bytes
        .cincoffsetimm(3, 2, 16) // c3 = c2 + 16
        .csc(2, 1, 0)            // store c2 at [c1]: page is cap-dirty
        .li(9, 2000)
        .label("spin")
        .addi(9, 9, -1)
        .bne(9, 0, "spin")
        .halt();
    sched::ExecContext &ca = admitProgram(s, ga, a, 0);
    Capability dataCap =
        ga.proc->as()
            .capForRange(ga.data, pageSize, PROT_READ | PROT_WRITE,
                         false)
            .setAddress(ga.data);
    ca.interp->regs().c[1] = dataCap;

    // Guest B (mips64) forces context switches every slice.
    SchedGuest gb = makeGuest(kern, Abi::Mips64, "spin-guest", 4);
    isa::Assembler b = aluLoop(2000);
    admitProgram(s, gb, b, 0);

    // The revocation victim: a separate mapping in A, cap-dirtied on
    // enough pages that the incremental epoch (2 pages per pump) stays
    // open across many slice boundaries.  Nothing in A's registers
    // points here, so the sweep must not touch them.
    u64 victim = ga.proc->as().map(0, 16 * pageSize,
                                   PROT_READ | PROT_WRITE,
                                   MappingKind::Data);
    Capability vcap = ga.proc->as()
                          .capForRange(victim, 16 * pageSize,
                                       PROT_READ | PROT_WRITE, false)
                          .setAddress(victim);
    for (u64 i = 0; i < 16; ++i)
        ASSERT_FALSE(ga.proc->mem().writeCap(victim + i * pageSize,
                                             vcap.setAddress(victim)));

    // Open the epoch from the third slice boundary, then let the
    // scheduler's background pump drive it; the invariant oracle runs
    // at every boundary (rule 6 covers the scheduler counters too).
    u64 slices = 0;
    u64 violations = 0;
    bool opened = false;
    u64 pidA = ga.proc->pid();
    s.setSliceHook([&](Process &) {
        if (++slices == 3 && !opened) {
            opened = true;
            SysResult r = kern.sysRevoke2(
                *kern.findProcess(pidA),
                {{victim, victim + 16 * pageSize}}, REVOKE_INCREMENTAL);
            ASSERT_FALSE(r.failed());
        }
        violations += check::Invariants::check(kern).violations.size();
    });
    kern.runUntilIdle();
    s.setSliceHook(nullptr);

    EXPECT_EQ(violations, 0u);
    EXPECT_TRUE(opened);
    EXPECT_GT(s.stats().contextSwitches, 10u);
    ASSERT_EQ(ca.last.status, isa::InterpResult::Status::Halted);

    // Drain whatever remains of the epoch, then check the register
    // file: every derived capability is still tagged with its exact
    // bounds — switches round-tripped the caps architecturally, never
    // through untagged storage — while the victim's own caps died.
    ASSERT_FALSE(kern.sysRevoke2(*ga.proc, {}, REVOKE_SYNC).failed());
    const ThreadRegs &r = ca.interp->regs();
    EXPECT_TRUE(r.c[1].tag());
    EXPECT_EQ(r.c[1], dataCap);
    EXPECT_TRUE(r.c[2].tag());
    EXPECT_EQ(r.c[2].base(), ga.data);
    EXPECT_EQ(r.c[2].length(), 64u);
    EXPECT_TRUE(r.c[3].tag());
    EXPECT_EQ(r.c[3].address(), ga.data + 16);
    Result<Capability> stored = ga.proc->mem().readCap(ga.data);
    ASSERT_TRUE(stored.ok());
    EXPECT_TRUE(stored.value().tag()) << "cap outside revoked range";
    Result<Capability> dead = ga.proc->mem().readCap(victim);
    ASSERT_TRUE(dead.ok());
    EXPECT_FALSE(dead.value().tag()) << "victim cap must be revoked";
}

TEST(SchedTest, DecodeCacheSurvivesContextSwitches)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    // Two guests on different ABIs, each a 19-instruction loop run 500
    // times: ~9000 retired steps across ~280 slices each.
    SchedGuest ga = makeGuest(kern, Abi::Mips64, "dc-mips", 4);
    SchedGuest gb = makeGuest(kern, Abi::CheriAbi, "dc-cheri", 4);
    isa::Assembler pa = aluLoop(500, 16);
    isa::Assembler pb = aluLoop(500, 16);
    sched::ExecContext &ca = admitProgram(s, ga, pa, 0);
    sched::ExecContext &cb = admitProgram(s, gb, pb, 0);
    kern.runUntilIdle();

    ASSERT_EQ(ca.last.status, isa::InterpResult::Status::Halted);
    ASSERT_EQ(cb.last.status, isa::InterpResult::Status::Halted);
    EXPECT_GT(s.stats().contextSwitches, 10u);

    // Each distinct instruction is fetched-and-decoded once per
    // context lifetime; every further execution hits the persistent
    // decode cache even though the context was preempted hundreds of
    // times.  (A per-slice interpreter would re-decode the loop body
    // every slice: ~19 misses x ~280 slices.)
    constexpr u64 kDistinct = 16 + 3; // body + li/addi/bne (+halt)
    for (Process *p : {ga.proc, gb.proc}) {
        const CostModel &cost = p->cost();
        EXPECT_LE(cost.itlbMisses(), kDistinct + 2)
            << "decode cache was lost across a context switch";
        EXPECT_GT(cost.itlbAccesses() - cost.itlbMisses(), 8000u);
    }
}

/** Run @p n identical CPU-bound guests on @p kern to completion. */
void
runAluGuests(Kernel &kern, sched::Scheduler &s, int n)
{
    isa::Assembler prog = aluLoop(200);
    for (int i = 0; i < n; ++i) {
        SchedGuest g = makeGuest(kern, Abi::Mips64, "mx-guest", 4);
        admitProgram(s, g, prog, 0);
    }
    kern.runUntilIdle();
}

/** The number after @p key in the metrics JSON's "sched" section. */
u64
schedField(const std::string &json, const std::string &key)
{
    size_t at = json.find("\"" + key + "\":", json.find("\"sched\":{"));
    EXPECT_NE(at, std::string::npos) << key;
    return std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
}

TEST(SchedTest, MetricsRegistryOutlivesItsKernels)
{
    obs::Metrics mx;
    SchedStats runs[2];
    const int guests[2] = {3, 1};
    for (int k = 0; k < 2; ++k) {
        KernelConfig cfg;
        cfg.timeSliceSteps = 64;
        Kernel kern(cfg);
        kern.setMetrics(&mx);
        sched::Scheduler &s = sched::schedulerFor(kern);
        runAluGuests(kern, s, guests[k]);
        runs[k] = s.stats();
    }
    // Both kernels are gone; the registry reports what they counted:
    // sums, except the run-queue high-water mark, which is a max.
    ASSERT_GT(runs[0].maxRunQueueDepth, runs[1].maxRunQueueDepth);
    std::string json = mx.toJson();
    EXPECT_EQ(schedField(json, "preemptions"),
              runs[0].preemptions + runs[1].preemptions);
    EXPECT_EQ(schedField(json, "slices"), runs[0].slices + runs[1].slices);
    EXPECT_EQ(schedField(json, "context_switches"),
              runs[0].contextSwitches + runs[1].contextSwitches);
    EXPECT_EQ(schedField(json, "steps_executed"),
              runs[0].stepsExecuted + runs[1].stepsExecuted);
    EXPECT_EQ(schedField(json, "max_run_queue_depth"),
              runs[0].maxRunQueueDepth);
}

TEST(SchedTest, KernelMovedBetweenRegistriesIsCountedOnce)
{
    obs::Metrics first;
    obs::Metrics second;
    SchedStats atMove;
    SchedStats atEnd;
    {
        KernelConfig cfg;
        cfg.timeSliceSteps = 64;
        Kernel kern(cfg);
        sched::Scheduler &s = sched::schedulerFor(kern);
        kern.setMetrics(&first);
        runAluGuests(kern, s, 2);
        atMove = s.stats();
        kern.setMetrics(&second);
        runAluGuests(kern, s, 2);
        atEnd = s.stats();
        EXPECT_EQ(schedField(second.toJson(), "steps_executed"),
                  atEnd.stepsExecuted);
        {
            // A registry destroyed while attached leaves the kernel
            // without one, not with a dangling pointer.
            obs::Metrics brief;
            kern.setMetrics(&brief);
        }
        EXPECT_EQ(kern.metrics(), nullptr);
        runAluGuests(kern, s, 1);
    }
    ASSERT_GT(atEnd.stepsExecuted, atMove.stepsExecuted);
    // The first registry kept the kernel's counts up to the move; the
    // second, the kernel's totals up to its own detach.  Neither
    // counted the kernel's destruction again.
    EXPECT_EQ(schedField(first.toJson(), "steps_executed"),
              atMove.stepsExecuted);
    EXPECT_EQ(schedField(first.toJson(), "slices"), atMove.slices);
    EXPECT_EQ(schedField(second.toJson(), "steps_executed"),
              atEnd.stepsExecuted);
    EXPECT_EQ(schedField(second.toJson(), "slices"), atEnd.slices);
}

TEST(SchedTest, HostedBodyThatThrowsLeavesTheSchedulerUsable)
{
    // An exception a hosted body lets escape reaches runHosted's caller
    // with the scheduler idle again: the hosted context is retired and
    // later drains still run work.
    Kernel kern;
    sched::Scheduler &s = sched::schedulerFor(kern);
    SchedGuest g = makeGuest(kern, Abi::Mips64, "after-throw", 4);
    EXPECT_THROW(s.runHosted(*g.proc,
                             [] { throw std::runtime_error("body"); }),
                 std::runtime_error);
    EXPECT_FALSE(s.active());
    // A nested hosted body sees a scheduler that is draining again.
    bool nested = false;
    s.runHosted(*g.proc, [&] { nested = s.active(); });
    EXPECT_TRUE(nested);

    isa::Assembler prog = aluLoop(10);
    sched::ExecContext &cx = admitProgram(s, g, prog, 0);
    kern.runUntilIdle();
    EXPECT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    EXPECT_GT(cx.retired(), 0u);
}

} // namespace
} // namespace cheri
