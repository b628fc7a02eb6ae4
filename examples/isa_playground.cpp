/**
 * @file
 * Domain example: ISA-level capability semantics.
 *
 * Assembles and runs MiniCHERI machine code inside a CheriABI process:
 * deriving a bounded capability with CSetBounds, faulting precisely at
 * an out-of-bounds CLD, and demonstrating the paper's NULL-DDC rule —
 * the very same legacy load instruction that works in a mips64 process
 * traps immediately in a pure-capability one.  The finale enters the
 * kernel through the numbered syscall ABI and dumps the observability
 * registry (counters, fault telemetry with provenance) as JSON.
 *
 * All guest code executes through the kernel scheduler: each process
 * has one persistent execution context whose interpreter (and decode
 * cache) survives across the programs below.
 *
 * Build & run:  ./build/examples/isa_playground
 */

#include <cstdio>

#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"

using namespace cheri;
using namespace cheri::isa;

namespace
{

const char *
statusName(InterpResult::Status s)
{
    switch (s) {
      case InterpResult::Status::Running: return "running";
      case InterpResult::Status::Halted: return "halted";
      case InterpResult::Status::Fault: return "FAULT";
      case InterpResult::Status::StepLimit: return "step limit";
      case InterpResult::Status::Preempted: return "preempted";
    }
    return "?";
}

} // namespace

int
main()
{
    Kernel kern;
    obs::Metrics metrics;
    kern.setMetrics(&metrics);
    kern.setTrace(&metrics); // learn capability provenance
    const SelfObject prog{.name = "isa"};
    Process *proc = kern.spawnExec(Abi::CheriAbi, prog, {"isa"});
    if (!proc) {
        std::fprintf(stderr, "isa_playground: execve failed\n");
        return 1;
    }
    u64 code = proc->as().map(0, pageSize,
                              PROT_READ | PROT_WRITE | PROT_EXEC,
                              MappingKind::Text);
    u64 data = proc->as().map(0, pageSize, PROT_READ | PROT_WRITE,
                              MappingKind::Data);

    sched::Scheduler &schd = sched::schedulerFor(kern);
    sched::ExecContext &cx = schd.context(*proc);
    Interpreter &interp = *cx.interp;

    std::printf("program: derive a 16-byte capability, fill it, then "
                "walk one word too far\n\n");
    Assembler a;
    a.csetboundsimm(2, 1, 16) // c2 = c1 bounded to 16 bytes
        .li(3, 0x11)
        .csd(3, 2, 0)  // in bounds
        .csd(3, 2, 8)  // in bounds
        .cld(4, 2, 16) // one past: traps
        .halt();
    a.writeTo(proc->as(), code);

    interp.setEntry(proc->as()
                        .capForRange(code, pageSize,
                                     PROT_READ | PROT_EXEC, false)
                        .setAddress(code));
    interp.regs().c[1] =
        proc->as()
            .capForRange(data, pageSize, PROT_READ | PROT_WRITE, false)
            .setAddress(data);
    schd.ready(cx);
    kern.runUntilIdle();
    InterpResult r = cx.last;
    std::printf("status: %s after %lu instructions\n",
                statusName(r.status), static_cast<unsigned long>(r.steps));
    std::printf("fault:  %s at pc=0x%lx (instruction #%lu: cld)\n",
                std::string(capFaultName(r.fault)).c_str(),
                static_cast<unsigned long>(r.faultPc),
                static_cast<unsigned long>((r.faultPc - code) / insnSize));
    std::printf("c2 was: %s\n\n", interp.regs().c[2].toString().c_str());

    std::printf("now the NULL-DDC rule: `ld r2, 0(r1)` — a legacy "
                "integer load —\n");
    Assembler b;
    b.li(1, static_cast<s64>(data)).ld(2, 1, 0).halt();
    b.writeTo(proc->as(), code);
    interp.setEntry(proc->as()
                        .capForRange(code, pageSize,
                                     PROT_READ | PROT_EXEC, false)
                        .setAddress(code));
    schd.ready(cx);
    kern.runUntilIdle();
    InterpResult r2 = cx.last;
    std::printf("  in this CheriABI process: %s (%s) — DDC is NULL\n",
                statusName(r2.status),
                std::string(capFaultName(r2.fault)).c_str());

    Process *legacy = kern.spawnExec(Abi::Mips64, prog, {"isa-legacy"});
    if (!legacy)
        return 1;
    u64 code2 = legacy->as().map(0, pageSize,
                                 PROT_READ | PROT_WRITE | PROT_EXEC,
                                 MappingKind::Text);
    u64 data2 = legacy->as().map(0, pageSize, PROT_READ | PROT_WRITE,
                                 MappingKind::Data);
    Assembler c;
    c.li(1, static_cast<s64>(data2)).ld(2, 1, 0).halt();
    c.writeTo(legacy->as(), code2);
    sched::ExecContext &cxl = schd.context(*legacy);
    cxl.interp->setEntry(Capability::fromAddress(code2));
    schd.ready(cxl);
    kern.runUntilIdle();
    InterpResult r3 = cxl.last;
    std::printf("  in a mips64 process:      %s — DDC spans the "
                "address space\n",
                statusName(r3.status));

    std::printf("\nfinally, the numbered syscall ABI: `syscall #n` "
                "enters Kernel::dispatch,\nwhich marshals arguments "
                "from the register file and reports errno in "
                "registers\n");
    Assembler d;
    d.syscall(static_cast<s64>(SysNum::Getpid))
        .syscall(static_cast<s64>(SysNum::Sbrk)) // CheriABI: E_NOSYS
        .halt();
    d.writeTo(proc->as(), code);
    interp.setEntry(proc->as()
                        .capForRange(code, pageSize,
                                     PROT_READ | PROT_EXEC, false)
                        .setAddress(code));
    cx.stepLimit = 1; // one instruction this window: getpid first
    schd.ready(cx);
    kern.runUntilIdle();
    std::printf("  getpid -> err=%lu ret=%lu (the pid)\n",
                static_cast<unsigned long>(interp.regs().x[regSysErr]),
                static_cast<unsigned long>(interp.regs().x[regRetVal]));
    cx.stepLimit = 0; // run the rest to the halt
    schd.ready(cx);
    kern.runUntilIdle();
    std::printf("  sbrk   -> err=%lu ret=%lu (%s: CheriABI excludes "
                "sbrk by principle)\n",
                static_cast<unsigned long>(interp.regs().x[regSysErr]),
                static_cast<unsigned long>(interp.regs().x[regRetVal]),
                std::string(errnoName(static_cast<int>(
                                interp.regs().x[regRetVal])))
                    .c_str());

    std::printf("\neverything above was observed; the registry as "
                "JSON:\n%s\n",
                metrics.toJson().c_str());
    return 0;
}
