/**
 * @file
 * Scheduler bench: what the unified execution engine buys.
 *
 * Before the scheduler, every driver that wanted to interleave guest
 * programs hand-rolled the same pattern per turn: construct an
 * isa::Interpreter, install the syscall hook, derive an entry
 * capability, run a bounded chunk, throw the interpreter away.  The
 * decode micro-cache died with every chunk.  The scheduler keeps one
 * ExecContext per (process, thread) alive across slices, so the cache
 * stays warm however many times the context is preempted.
 *
 * Three measurements:
 *  - multi-process throughput: four CPU-bound guests, time-sliced by
 *    the scheduler, versus the same four programs interleaved by
 *    serially re-creating interpreters (the old per-driver pattern);
 *  - context-switch cost: host-side overhead per scheduler context
 *    switch, from the timing delta between a two-process run (which
 *    switches every slice) and the same work run back to back;
 *  - scaling: aggregate 4-process throughput versus a single process,
 *    which should be flat — the engine serializes slices, so adding
 *    runnable processes must not collapse per-step cost.
 *
 * The gates: the scheduler clears a 3x throughput floor over the
 * re-create pattern, switch cost stays bounded, and scaling stays
 * flat.
 */

#include <map>

#include "bench_util.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "os/kernel.h"
#include "os/sched/sched.h"

using namespace cheri;

namespace
{

using bench::Clock;

/** Loop iterations per guest program. */
constexpr u64 kLoops = 4000;
/** Distinct ALU instructions in the loop body: large enough that a
 *  cold decode cache misses on (nearly) every step of a time slice,
 *  small enough to fit the 256-entry cache once warm. */
constexpr u64 kBodyInsns = 224;
/** The scheduler time slice (and the baseline's chunk size): fine
 *  enough that four guests interleave responsively, which is exactly
 *  where the per-dispatch re-creation tax hurts the old pattern. */
constexpr u64 kSlice = 64;

struct Guest
{
    Process *proc = nullptr;
    u64 codeVa = 0;
};

/** The CPU-bound loop kernel every guest runs. */
isa::Assembler
buildLoop()
{
    isa::Assembler a;
    a.li(3, static_cast<s64>(kLoops)).label("loop");
    for (u64 i = 0; i < kBodyInsns; ++i)
        a.addi(4 + (i % 8), 4 + (i % 8), 1);
    a.addi(3, 3, -1).bne(3, 0, "loop").halt();
    return a;
}

/** Spawn a mips64 process running the CPU-bound loop kernel. */
Guest
makeGuest(Kernel &kern, const char *name)
{
    // The image points at its program, so the program outlives it.
    static std::map<std::string, SelfObject> programs;
    SelfObject &prog = programs[name];
    prog.name = name;
    Process *proc = kern.spawnExec(Abi::Mips64, prog, {name});
    if (!proc)
        bench::setupFailed("sched_bench", "execve failed");
    u64 code = proc->as().map(0, 4 * pageSize,
                              PROT_READ | PROT_WRITE | PROT_EXEC,
                              MappingKind::Text);
    buildLoop().writeTo(proc->as(), code);
    proc->regs().pcc = Capability::fromAddress(code);
    return {proc, code};
}

double
stepsPerSec(u64 steps, Clock::duration d)
{
    double secs = std::chrono::duration<double>(d).count();
    return secs > 0 ? static_cast<double>(steps) / secs : 0;
}

/** Run @p n guests to completion under the scheduler; returns
 *  steps/sec and exposes the kernel's final scheduler stats. */
double
runScheduled(unsigned n, SchedStats *out = nullptr)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = kSlice;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);
    for (unsigned i = 0; i < n; ++i)
        s.admit(*makeGuest(kern, "sched-guest").proc);
    auto t0 = Clock::now();
    kern.runUntilIdle();
    auto t1 = Clock::now();
    if (out)
        *out = s.stats();
    return stepsPerSec(s.stats().stepsExecuted, t1 - t0);
}

/**
 * The old per-driver pattern, exactly as the pre-scheduler DiffFuzzer
 * Compute op ran guest code on every dispatch: lower the program, write
 * it into guest memory, construct a fresh interpreter (cold decode
 * cache), install a fresh syscall hook, derive a fresh entry, run a
 * bounded chunk, throw it all away.  Interleaving @p n guests means
 * paying that per turn.
 */
double
runRecreated(unsigned n)
{
    Kernel kern;
    std::vector<Guest> guests;
    std::vector<bool> halted(n, false);
    for (unsigned i = 0; i < n; ++i)
        guests.push_back(makeGuest(kern, "recreate-guest"));
    u64 steps = 0;
    auto t0 = Clock::now();
    for (bool any = true; any;) {
        any = false;
        for (unsigned i = 0; i < n; ++i) {
            if (halted[i])
                continue;
            any = true;
            Process &proc = *guests[i].proc;
            buildLoop().writeTo(proc.as(), guests[i].codeVa);
            isa::Interpreter interp(proc);
            isa::installDefaultSyscallHook(interp, kern);
            interp.setEntry(
                Capability::fromAddress(proc.regs().pcc.address()));
            isa::InterpResult r = interp.run(kSlice);
            steps += r.steps;
            if (r.status != isa::InterpResult::Status::StepLimit)
                halted[i] = true;
        }
    }
    auto t1 = Clock::now();
    return stepsPerSec(steps, t1 - t0);
}

/** Host nanoseconds of pure switch overhead per context switch. */
double
switchCostNs()
{
    // Two processes ping-pong every slice; the same total work run as
    // two one-process drains has (almost) no switches.  The timing
    // delta divided by the switch count isolates the per-switch cost.
    SchedStats pair;
    auto t0 = Clock::now();
    runScheduled(2, &pair);
    auto t1 = Clock::now();
    auto t2 = Clock::now();
    runScheduled(1);
    runScheduled(1);
    auto t3 = Clock::now();
    double paired = std::chrono::duration<double>(t1 - t0).count();
    double serial = std::chrono::duration<double>(t3 - t2).count();
    double delta = paired - serial;
    if (delta < 0)
        delta = 0;
    return pair.contextSwitches
               ? delta * 1e9 / static_cast<double>(pair.contextSwitches)
               : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report rep("sched_bench",
                      "Scheduler: persistent contexts vs per-chunk "
                      "interpreter re-creation",
                      argc, argv);
    SchedStats multi;
    double schedMulti = runScheduled(4, &multi);
    double recreate = runRecreated(4);
    double schedSingle = runScheduled(1);
    double ratio = recreate > 0 ? schedMulti / recreate : 0;
    double scaling = schedSingle > 0 ? schedMulti / schedSingle : 0;
    double switchNs = switchCostNs();

    rep.metric("slice_steps", "time slice (steps)", kSlice);
    rep.metric("guests", "guests", u64{4});
    rep.metric("sched_steps_per_sec", "4 guests, scheduler: steps/sec",
               schedMulti);
    rep.metric("recreate_steps_per_sec",
               "4 guests, re-created per chunk: steps/sec", recreate);
    rep.metric("throughput_ratio", "throughput ratio (sched / re-create)",
               ratio);
    rep.metric("single_proc_steps_per_sec", "1 guest, scheduler: steps/sec",
               schedSingle);
    rep.metric("scaling_vs_single", "scaling vs single process", scaling);
    rep.metric("context_switches", "context switches",
               multi.contextSwitches);
    rep.metric("preemptions", "preemptions", multi.preemptions);
    rep.metric("switch_cost_ns", "switch cost (ns)", switchNs);

    rep.atLeast("throughput_ratio", ratio, 3.0);
    rep.atLeast("scaling_vs_single", scaling, 0.5);
    rep.atMost("switch_cost_ns", switchNs, 50000);
    return rep.finish();
}
