/**
 * @file
 * ISA-level comparison: the same copy/checksum kernel expressed with
 * legacy (DDC-relative) loads/stores versus capability-relative ones.
 *
 * The paper's compiler story is that pure-capability code is mostly a
 * 1:1 re-expression of legacy code — CLx/CSx replace Lx/Sx at the same
 * instruction count — with overhead coming from pointer *width*, GOT
 * access, and bounds-setting, not from per-access instruction bloat.
 * This bench verifies the 1:1 property at instruction level and
 * reports interpreter throughput on the host.
 */

#include <chrono>

#include "bench_util.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"

using namespace cheri;
using namespace cheri::isa;

namespace
{

struct RunStats
{
    u64 retired = 0;
    u64 simInstr = 0;
    u64 simCycles = 0;
    double hostMips = 0; // host-side interpreted MIPS
};

RunStats
runKernel(Abi abi, bool capability_form, u64 words, obs::Metrics *mx,
          const char *label)
{
    Kernel kern;
    kern.setMetrics(mx); // wires per-ABI TLB counters into spawn
    const SelfObject prog{.name = "isakernel"};
    Process *proc = kern.spawnExec(abi, prog, {"isakernel"});
    if (!proc)
        bench::setupFailed("isa_overhead", "execve failed");
    u64 code = proc->as().map(0, pageSize,
                              PROT_READ | PROT_WRITE | PROT_EXEC,
                              MappingKind::Text);
    u64 src = proc->as().map(0, pageRound(words * 8), PROT_READ | PROT_WRITE,
                             MappingKind::Data);
    u64 dst = proc->as().map(0, pageRound(words * 8), PROT_READ | PROT_WRITE,
                             MappingKind::Data);

    Assembler a;
    if (capability_form) {
        // c1 = src cap, c2 = dst cap (installed below); x3 = counter.
        a.li(3, static_cast<s64>(words))
            .label("loop")
            .cld(4, 1, 0)
            .add(5, 5, 4) // checksum
            .csd(4, 2, 0)
            .cincoffsetimm(1, 1, 8)
            .cincoffsetimm(2, 2, 8)
            .addi(3, 3, -1)
            .bne(3, 0, "loop")
            .halt();
    } else {
        a.li(1, static_cast<s64>(src))
            .li(2, static_cast<s64>(dst))
            .li(3, static_cast<s64>(words))
            .label("loop")
            .ld(4, 1, 0)
            .add(5, 5, 4)
            .sd(4, 2, 0)
            .addi(1, 1, 8)
            .addi(2, 2, 8)
            .addi(3, 3, -1)
            .bne(3, 0, "loop")
            .halt();
    }
    a.writeTo(proc->as(), code);

    // Execute through the kernel scheduler: the persistent context's
    // interpreter (and warm decode cache) is the measured engine.
    sched::Scheduler &s2 = sched::schedulerFor(kern);
    sched::ExecContext &cx = s2.context(*proc);
    Interpreter &interp = *cx.interp;
    if (abi == Abi::CheriAbi) {
        interp.setEntry(proc->as()
                            .capForRange(code, pageSize,
                                         PROT_READ | PROT_EXEC, false)
                            .setAddress(code));
    } else {
        interp.setEntry(Capability::fromAddress(code));
    }
    if (capability_form) {
        interp.regs().c[1] =
            proc->as()
                .capForRange(src, words * 8, PROT_READ | PROT_WRITE,
                             false)
                .setAddress(src);
        interp.regs().c[2] =
            proc->as()
                .capForRange(dst, words * 8, PROT_READ | PROT_WRITE,
                             false)
                .setAddress(dst);
    }
    proc->cost().reset();
    u64 base = interp.retired();
    auto t0 = std::chrono::steady_clock::now();
    cx.stepLimit = 100'000'000;
    s2.ready(cx);
    kern.runUntilIdle();
    auto t1 = std::chrono::steady_clock::now();
    if (cx.last.status != InterpResult::Status::Halted)
        throw std::runtime_error("kernel did not halt");
    RunStats s;
    s.retired = interp.retired() - base;
    s.simInstr = proc->cost().instructions();
    s.simCycles = proc->cost().cycles();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    s.hostMips = secs > 0 ? s.retired / secs / 1e6 : 0;
    if (mx)
        mx->captureCost(label, proc->cost());
    return s;
}

} // namespace

int
main()
{
    const u64 words = 32 * 1024;
    bench::banner("ISA-level kernel: legacy (DDC) vs capability "
                  "addressing");
    obs::Metrics metrics;
    RunStats legacy =
        runKernel(Abi::Mips64, false, words, &metrics, "legacy-copy");
    RunStats capform =
        runKernel(Abi::CheriAbi, true, words, &metrics, "cap-copy");
    std::printf("%-26s %12s %12s %12s %10s\n", "form", "retired",
                "sim-instr", "sim-cycles", "host-MIPS");
    std::printf("%-26s %12lu %12lu %12lu %10.1f\n",
                "mips64 ld/sd via DDC",
                static_cast<unsigned long>(legacy.retired),
                static_cast<unsigned long>(legacy.simInstr),
                static_cast<unsigned long>(legacy.simCycles),
                legacy.hostMips);
    std::printf("%-26s %12lu %12lu %12lu %10.1f\n",
                "cheriabi cld/csd via cap",
                static_cast<unsigned long>(capform.retired),
                static_cast<unsigned long>(capform.simInstr),
                static_cast<unsigned long>(capform.simCycles),
                capform.hostMips);
    double instr_delta =
        (static_cast<double>(capform.retired) -
         static_cast<double>(legacy.retired)) /
        static_cast<double>(legacy.retired) * 100.0;
    std::printf("\nretired-instruction delta: %+.2f%%   "
                "(capability addressing is ~1:1 with legacy;\n"
                "the loop differs only in pointer-increment form)\n",
                instr_delta);
    bench::banner("Instruction mix + cost counters (JSON, "
                  "cheri.metrics.v9)");
    std::printf("%s\n", metrics.toJson().c_str());
    return 0;
}
