/**
 * @file
 * Hardening bench: the cost of always-on kernel hardening.
 *
 * Two overheads gate here because they are paid on every run, not just
 * on failures:
 *
 *  - flight-recorder ring recording: every syscall dispatch appends
 *    one event.  Measured as dispatch throughput with the default ring
 *    (depth 64) vs the ring disabled (depth 0, count-only);
 *  - the deadlock-watchdog scan: every scheduler drain that goes idle
 *    with deadline-less blocked contexts walks the wait-for relation.
 *    Measured as nanoseconds per scan over a population of blocked
 *    (but host-wakeable, so never killed) ev_wait contexts.
 *
 * Both overheads are gated by a deliberately generous, host-noise
 * tolerant bound on Release host time.
 */

#include "bench_util.h"
#include "isa/assembler.h"
#include "os/kernel.h"
#include "os/sched/sched.h"
#include "os/sys_invoke.h"

using namespace cheri;

namespace
{

constexpr int kDispatchReps = 200000;
constexpr u64 kBlockedContexts = 32;
constexpr int kScanReps = 2000;

const SelfObject kProgram{.name = "hardbench"};

/** Host-driven getpid dispatches per second at @p ring_depth. */
double
dispatchRate(u64 ring_depth)
{
    KernelConfig cfg;
    cfg.flightRecorderDepth = ring_depth;
    Kernel kern(cfg);
    Process *p = kern.spawnExec(Abi::CheriAbi, kProgram, {"hardbench"});
    if (!p)
        return 0;
    // Warm-up, then the timed loop.
    for (int i = 0; i < 1000; ++i)
        sysInvoke(kern, *p, SysNum::Getpid, {});
    auto t0 = bench::Clock::now();
    for (int i = 0; i < kDispatchReps; ++i)
        sysInvoke(kern, *p, SysNum::Getpid, {});
    double sec = bench::secondsSince(t0);
    return sec > 0 ? kDispatchReps / sec : 0;
}

/**
 * Nanoseconds per watchdog scan over kBlockedContexts parked ev_wait
 * guests.  A host-driven process keeps every park wakeable, so each
 * idle drain runs exactly one full (non-killing) fixpoint scan.
 */
double
watchdogScanNs()
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 64;
    cfg.deadlockPolicy = DeadlockPolicy::Kill;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    // The capable host-driven peer: its mere existence makes every
    // ev_wait park wakeable.
    if (!kern.spawnExec(Abi::Mips64, kProgram, {"host-peer"}))
        return -1;

    for (u64 i = 0; i < kBlockedContexts; ++i) {
        Process *p = kern.spawnExec(Abi::Mips64, kProgram, {"parked"});
        if (!p)
            return -1;
        u64 code = p->as().map(0, pageSize,
                               PROT_READ | PROT_WRITE | PROT_EXEC,
                               MappingKind::Text);
        isa::Assembler a;
        a.syscall(static_cast<s64>(SysNum::EvWait)).halt();
        a.writeTo(p->as(), code);
        sched::ExecContext &cx = s.context(*p);
        cx.interp->setEntry(Capability::fromAddress(code));
        s.ready(cx);
    }
    kern.runUntilIdle(); // park everyone (first scan: warm-up)
    if (kern.hardeningStats().deadlocksDetected != 0 ||
        kern.hardeningStats().deadlocksKilled != 0)
        return -1; // wakeable parks must never trip the watchdog

    auto t0 = bench::Clock::now();
    for (int i = 0; i < kScanReps; ++i)
        kern.runUntilIdle(); // nothing runnable: idle pass + one scan
    double sec = bench::secondsSince(t0);
    if (kern.hardeningStats().deadlocksDetected != 0)
        return -1;
    return sec * 1e9 / kScanReps;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report rep("hardening_bench",
                      "Hardening: flight-recorder and watchdog cost", argc,
                      argv);
    double rateOn = dispatchRate(64);
    double rateOff = dispatchRate(0);
    double overheadPct =
        rateOff > 0 ? (rateOff - rateOn) * 100.0 / rateOff : 100.0;
    double scanNs = watchdogScanNs();

    rep.metric("dispatch_per_sec_ring_on", "dispatches/sec, ring depth 64",
               rateOn);
    rep.metric("dispatch_per_sec_ring_off", "dispatches/sec, ring off",
               rateOff);
    rep.metric("ring_overhead_pct", "ring recording overhead (%)",
               overheadPct);
    rep.metric("blocked_contexts", "blocked contexts in the scan",
               kBlockedContexts);
    rep.metric("watchdog_scan_ns", "watchdog scan (ns)", scanNs);

    // A failed setup, or a wakeable park that tripped the watchdog.
    rep.require("setup_ok", rateOn > 0 && rateOff > 0 && scanNs >= 0);
    // The ring is a fixed-size array append behind one branch; the
    // bound is generous to tolerate host noise, but a copying or
    // allocating implementation would blow straight through it.
    rep.atMost("ring_overhead_pct", overheadPct, 40.0);
    // Fixpoint over 32 contexts consulting the process table and FD
    // tables: anything near a millisecond means the scan went
    // quadratic-with-a-large-constant or started allocating per edge.
    rep.atMost("watchdog_scan_ns", scanNs, 1e6);
    return rep.finish();
}
