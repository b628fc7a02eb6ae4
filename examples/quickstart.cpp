/**
 * @file
 * Quickstart: boot a MiniBSD kernel, exec a pure-capability (CheriABI)
 * process, and watch the machinery work.
 *
 *   - execve installs bounded capabilities for the stack, arguments,
 *     and program image (paper Figure 1);
 *   - malloc returns capabilities bounded to each allocation;
 *   - walking one byte past an allocation traps with SIGPROT.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "guest/context.h"
#include "libc/crt.h"
#include "libc/malloc.h"

using namespace cheri;

int
main()
{
    // 1. Boot a kernel and exec a CheriABI process.
    GuestSystem sys(Abi::CheriAbi, {.name = "hello", .textSize = 0x1000},
                    {"hello", "world"}, {"LANG=C"});
    if (!sys) {
        std::fprintf(stderr, "quickstart: execve failed\n");
        return 1;
    }
    Process *proc = sys.proc;

    std::printf("booted: pid=%lu principal=%lu\n",
                static_cast<unsigned long>(proc->pid()),
                static_cast<unsigned long>(proc->as().principal()));
    std::printf("stack capability:  %s\n",
                proc->regs().stack().toString().c_str());
    std::printf("PCC:               %s\n",
                proc->regs().pcc.toString().c_str());
    std::printf("DDC:               %s   <- NULL: no ambient authority\n",
                proc->regs().ddc.toString().c_str());

    // 2. Run guest code in the process.
    int rc = runGuest(*sys.ctx, [](GuestContext &ctx) {
        // The C runtime finds argv through the aux vector.
        CrtEnv env = crtInit(ctx);
        std::printf("\nguest: argc=%d argv[0]=\"%s\" argv[1]=\"%s\"\n",
                    env.argc, crtArg(ctx, env, 0).c_str(),
                    crtArg(ctx, env, 1).c_str());
        std::printf("guest: argv[1] capability: %s\n",
                    env.argv[1].cap.toString().c_str());

        // Heap allocations come back bounded.
        GuestMalloc heap(ctx);
        GuestPtr buf = heap.malloc(32);
        std::printf("guest: malloc(32) -> %s\n",
                    buf.cap.toString().c_str());
        for (int i = 0; i < 4; ++i)
            ctx.store<u64>(buf, i * 8, 0x1111 * (i + 1));
        std::printf("guest: buf[3] = 0x%lx\n",
                    static_cast<unsigned long>(ctx.load<u64>(buf, 24)));

        // One byte too far: the capability says no.
        std::printf("guest: reading buf[32]...\n");
        ctx.load<u8>(buf, 32); // SIGPROT
        return 0;
    });

    // 3. The overflow became a SIGPROT death, not silent corruption.
    std::printf("\nprocess exited with status %d\n", rc);
    if (proc->death()) {
        std::printf("cause: signal %d, %s at 0x%lx\n",
                    proc->death()->signal,
                    std::string(capFaultName(proc->death()->fault))
                        .c_str(),
                    static_cast<unsigned long>(proc->death()->faultAddr));
    }
    return 0;
}
