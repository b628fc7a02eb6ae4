/**
 * @file
 * Domain example: a mini debugger session across principals.
 *
 * The paper's section 3 treats debugging as the hardest abstract-
 * capability case: two principals, whose capabilities must never flow
 * into each other.  This example attaches a "gdb" process to a target,
 * inspects its registers and a capability in its heap, pokes raw bytes
 * (and watches the tag die), then injects a fresh capability —
 * rederived from the *target's* root, never transplanted from the
 * debugger.
 *
 * Build & run:  ./build/examples/debugger
 */

#include <cstdio>

#include "guest/context.h"
#include "libc/malloc.h"
#include "os/sched/sched.h"

using namespace cheri;

int
main()
{
    GuestSystem sys(Abi::CheriAbi, {.name = "target", .textSize = 0x1000},
                    {"target"});
    Process *gdb =
        sys ? sys.kern.spawnExec(Abi::CheriAbi, sys.prog, {"gdb"}) : nullptr;
    if (!gdb) {
        std::fprintf(stderr, "debugger: execve failed\n");
        return 1;
    }
    Kernel &kern = sys.kern;
    Process *target = sys.proc;
    GuestContext &tctx = *sys.ctx;

    // The target sets up some state: a secret and a pointer to it.
    GuestPtr secret, table;
    sys.hosted([&] {
        GuestMalloc theap(tctx);
        secret = theap.malloc(32);
        tctx.store<u64>(secret, 0, 0xC0FFEE);
        table = theap.malloc(64);
        tctx.storePtr(table, 0, secret);
    });

    // gdb's commands run as gdb's own hosted body.
    sched::schedulerFor(kern).runHosted(*gdb, [&] {
        std::printf("(gdb) attach %lu\n",
                    static_cast<unsigned long>(target->pid()));
        SysResult r = kern.sysPtrace(*gdb, PtReq::Attach, target->pid(), 0,
                                     nullptr, 0);
        std::printf("  -> %s\n", r.failed() ? "error" : "attached");

        std::printf("(gdb) info registers\n");
        ThreadRegs regs;
        kern.ptraceGetRegs(*gdb, target->pid(), &regs);
        std::printf("  pcc = %s\n", regs.pcc.toString().c_str());
        std::printf("  csp = %s\n", regs.stack().toString().c_str());

        std::printf("(gdb) x/1gx 0x%lx          # raw read of the secret\n",
                    static_cast<unsigned long>(secret.addr()));
        u64 value = 0;
        kern.sysPtrace(*gdb, PtReq::ReadData, target->pid(), secret.addr(),
                       &value, 8);
        std::printf("  0x%lx\n", static_cast<unsigned long>(value));

        std::printf("(gdb) print *(void **)0x%lx   # inspect a capability\n",
                    static_cast<unsigned long>(table.addr()));
        Capability seen;
        kern.ptraceReadCap(*gdb, target->pid(), table.addr(), &seen);
        std::printf("  %s\n", seen.toString().c_str());

        std::printf("(gdb) poke raw bytes over the stored capability\n");
        u64 garbage = 0x4141414141414141;
        kern.sysPtrace(*gdb, PtReq::WriteData, target->pid(), table.addr(),
                       &garbage, 8);
        GuestPtr after = tctx.loadPtr(table, 0);
        std::printf("  target now sees: %s   <- tag gone, pointer dead\n",
                    after.cap.toString().c_str());

        std::printf("(gdb) inject a fresh capability over the slot\n");
        Capability wanted = target->as()
                                .rederivationRoot()
                                .setAddress(secret.addr())
                                .setBounds(32)
                                .value()
                                .withoutTag();
        r = kern.ptraceWriteCap(*gdb, target->pid(), table.addr(), wanted);
        std::printf("  -> %s (rederived from the target's own root)\n",
                    r.failed() ? "refused" : "injected");
        GuestPtr restored = tctx.loadPtr(table, 0);
        std::printf("  target now sees: %s\n",
                    restored.cap.toString().c_str());
        std::printf("  *ptr = 0x%lx\n",
                    static_cast<unsigned long>(tctx.load<u64>(restored)));

        std::printf("(gdb) try to inject a kernel-range capability\n");
        Capability evil = Capability::root()
                              .setAddress(AddressSpace::userTop + 0x1000)
                              .setBounds(0x1000)
                              .value()
                              .withoutTag();
        r = kern.ptraceWriteCap(*gdb, target->pid(), table.addr(), evil);
        std::printf("  -> %s (%s)\n", r.failed() ? "REFUSED" : "injected?!",
                    std::string(errnoName(r.error)).c_str());

        std::printf("(gdb) detach\n");
        kern.sysPtrace(*gdb, PtReq::Detach, target->pid(), 0, nullptr, 0);
    });
    return 0;
}
