/**
 * @file
 * System-call micro-benchmarks (paper section 5.2).
 *
 * The paper reports the worst case at fork (+3.4% under CheriABI,
 * from the wider capability register context) and the best at select
 * (-9.8%: four pointer arguments that the legacy kernel must wrap in
 * freshly constructed capabilities, while CheriABI passes capabilities
 * directly).  This bench measures simulated cycles per call for a
 * battery of syscalls under both ABIs.
 *
 * Every call enters the kernel through the numbered syscall ABI
 * (Kernel::dispatch), so one shared Metrics registry accumulates
 * per-syscall call counts and cycle histograms split by ABI; the JSON
 * report embeds that registry under "registry".
 */

#include <cstdint>
#include <functional>

#include "bench_util.h"
#include "guest/context.h"
#include "libc/malloc.h"
#include "obs/metrics.h"
#include "os/sys_invoke.h"

using namespace cheri;

namespace
{

struct MicroBench
{
    std::string name;
    /** Returns cycles per iteration. */
    std::function<u64(GuestContext &, GuestMalloc &, u64)> run;
};

u64
measure(const MicroBench &mb, Abi abi, u64 iters, obs::Metrics *mx)
{
    GuestSystem sys;
    sys.kern.setMetrics(mx);
    if (!sys.boot(abi, {.name = mb.name}, {mb.name}))
        return 0;
    u64 cycles = 0;
    sys.hosted([&] {
        GuestMalloc heap(*sys.ctx);
        cycles = mb.run(*sys.ctx, heap, iters);
    });
    return cycles;
}

/** pipe(2) through the numbered ABI: the kernel copies the two
 *  descriptors out through the pointer argument. */
void
guestPipe(GuestContext &ctx, GuestMalloc &heap, int fds[2])
{
    GuestPtr out = heap.malloc(2 * sizeof(std::int32_t));
    ctx.pipe(out);
    fds[0] = ctx.load<std::int32_t>(out, 0);
    fds[1] = ctx.load<std::int32_t>(out, sizeof(std::int32_t));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report rep("syscall_micro",
                      "System-call micro-benchmarks (simulated cycles/call)",
                      argc, argv);
    const u64 iters = 400;
    std::vector<MicroBench> benches;

    benches.push_back({"getpid", [](GuestContext &ctx, GuestMalloc &,
                                    u64 n) {
        ctx.cost().reset();
        for (u64 i = 0; i < n; ++i)
            ctx.getpid();
        return ctx.cost().cycles() / n;
    }});

    benches.push_back({"read-1k", [](GuestContext &ctx, GuestMalloc &heap,
                                     u64 n) {
        s64 fd = ctx.open("/tmp/micro", O_RDWR | O_CREAT);
        GuestPtr buf = heap.malloc(1024);
        ctx.write(static_cast<int>(fd), buf, 1024);
        ctx.cost().reset();
        for (u64 i = 0; i < n; ++i) {
            ctx.lseek(static_cast<int>(fd), 0, 0);
            ctx.read(static_cast<int>(fd), buf, 1024);
        }
        return ctx.cost().cycles() / n;
    }});

    benches.push_back({"write-1k", [](GuestContext &ctx,
                                      GuestMalloc &heap, u64 n) {
        s64 fd = ctx.open("/tmp/micro2", O_RDWR | O_CREAT | O_TRUNC);
        GuestPtr buf = heap.malloc(1024);
        ctx.cost().reset();
        for (u64 i = 0; i < n; ++i) {
            ctx.lseek(static_cast<int>(fd), 0, 0);
            ctx.write(static_cast<int>(fd), buf, 1024);
        }
        return ctx.cost().cycles() / n;
    }});

    benches.push_back({"pipe-pingpong", [](GuestContext &ctx,
                                           GuestMalloc &heap, u64 n) {
        int fds[2];
        guestPipe(ctx, heap, fds);
        GuestPtr buf = heap.malloc(64);
        ctx.cost().reset();
        for (u64 i = 0; i < n; ++i) {
            ctx.write(fds[1], buf, 64);
            ctx.read(fds[0], buf, 64);
        }
        return ctx.cost().cycles() / n;
    }});

    benches.push_back({"select", [](GuestContext &ctx, GuestMalloc &heap,
                                    u64 n) {
        int fds[2];
        guestPipe(ctx, heap, fds);
        GuestPtr sets = heap.malloc(256);
        ctx.cost().reset();
        for (u64 i = 0; i < n; ++i) {
            ctx.store<u64>(sets, 0, u64{1} << fds[0]);
            ctx.store<u64>(sets, 64, u64{1} << fds[1]);
            ctx.store<u64>(sets, 128, 0);
            ctx.select(8, sets, sets + 64, sets + 128, sets + 192);
        }
        return ctx.cost().cycles() / n;
    }});

    benches.push_back({"sigtramp", [](GuestContext &ctx, GuestMalloc &,
                                      u64 n) {
        Process &proc = ctx.proc();
        u64 hid = proc.registerHandler([](Process &, SigFrame &) {});
        ctx.kernel().sysSigaction(proc, SIG_USR1,
                                  {SigAction::Kind::Handler, hid});
        ctx.cost().reset();
        for (u64 i = 0; i < n; ++i) {
            ctx.kill(proc.pid(), SIG_USR1);
            ctx.kernel().deliverSignals(proc);
        }
        return ctx.cost().cycles() / n;
    }});

    benches.push_back({"mmap+munmap", [](GuestContext &ctx,
                                         GuestMalloc &, u64 n) {
        ctx.cost().reset();
        for (u64 i = 0; i < n; ++i) {
            GuestPtr p = ctx.mmap(4 * pageSize);
            ctx.munmap(p, 4 * pageSize);
        }
        return ctx.cost().cycles() / n;
    }});

    benches.push_back({"fork", [](GuestContext &ctx, GuestMalloc &,
                                  u64 n) {
        Kernel &kern = ctx.kernel();
        ctx.cost().reset();
        for (u64 i = 0; i < n; ++i) {
            SysInvokeResult r = sysInvoke(kern, ctx.proc(), SysNum::Fork);
            Process *child = kern.findProcess(r.res.value);
            if (!child)
                break;
            kern.exitProcess(*child, 0);
            kern.wait4(ctx.proc(), child->pid());
        }
        return ctx.cost().cycles() / n;
    }});

    obs::Metrics metrics;
    bench::Report::Table &t =
        rep.table("syscalls", "Simulated cycles per call",
                  {"syscall", "mips64", "cheriabi", "delta_pct"});
    for (const MicroBench &mb : benches) {
        u64 m = measure(mb, Abi::Mips64, iters, &metrics);
        u64 c = measure(mb, Abi::CheriAbi, iters, &metrics);
        double pct = m ? (static_cast<double>(c) - static_cast<double>(m)) /
                             static_cast<double>(m) * 100.0
                       : 0.0;
        t.row({mb.name, m, c, pct});
    }
    rep.note("Paper (section 5.2): from +3.4% (fork, worst case) to -9.8% "
             "(select,\nbest case: four pointer arguments the legacy "
             "kernel must wrap in\ncapabilities).");
    rep.document("registry", metrics.toJson());
    return rep.finish();
}
