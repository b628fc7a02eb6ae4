/**
 * @file
 * Domain example: sealed-capability compartments.
 *
 * Builds two mutually distrusting "plugins" inside one CheriABI
 * process: each gets a sealed code/data pair (an object capability).
 * The host can pass the sealed handles around freely — they are
 * unforgeable and opaque — and only CCall-style invocation, holding
 * the right unsealing authority, can enter a plugin.  A malicious
 * host that tries to read plugin state directly, or to mix one
 * plugin's code with another's data, is stopped by the hardware
 * type system.
 *
 * Build & run:  ./build/examples/compartments
 */

#include <cstdio>

#include "libc/malloc.h"
#include "libc/sealing.h"

using namespace cheri;

int
main()
{
    GuestSystem sys(Abi::CheriAbi, {.name = "plugin_host", .textSize = 0x2000},
                    {"plugin_host"});
    if (!sys) {
        std::fprintf(stderr, "compartments: execve failed\n");
        return 1;
    }
    return runGuest(*sys.ctx, [&](GuestContext &ctx) {
        GuestMalloc heap(ctx);

        SealingRuntime sealing(ctx, 8);
        std::printf("kernel granted sealing authority over %s\n",
                    sealing.valid() ? "8 object types" : "NOTHING?");

        // Two plugins, each with private state.
        auto make_plugin = [&](u64 secret) {
            GuestPtr state = heap.malloc(64);
            ctx.store<u64>(state, 0, secret); // the plugin's key material
            ctx.store<u64>(state, 8, 0);      // invocation counter
            return sealing.makeSandbox(ctx.proc().regs().pcc, state.cap);
        };
        SealedObject signer = make_plugin(0x5EA15EA1);
        SealedObject verifier = make_plugin(0x0DD5);

        std::printf("signer handle:   %s\n", signer.data.toString().c_str());
        std::printf("verifier handle: %s\n",
                    verifier.data.toString().c_str());

        // The host cannot peek at plugin state through the handle.
        std::printf("\nhost tries to read the signer's key directly... ");
        try {
            ctx.load<u64>(GuestPtr(signer.data));
            std::printf("LEAKED?!\n");
        } catch (const CapTrap &t) {
            std::printf("blocked (%s)\n",
                        std::string(capFaultName(t.fault())).c_str());
        }

        // Legitimate invocation: sign a message inside the compartment.
        SandboxMethod sign = [](GuestContext &c, const GuestPtr &state,
                                u64 msg) {
            u64 key = c.load<u64>(state, 0);
            c.store<u64>(state, 8, c.load<u64>(state, 8) + 1);
            return msg ^ key; // "signature"
        };
        Result<u64> sig = sealing.invoke(signer, sign, 0xCAFE);
        std::printf("\ninvoke(signer, sign, 0xCAFE) = 0x%lx\n",
                    static_cast<unsigned long>(sig.value()));

        // Mixing the signer's code with the verifier's data must fail:
        // the otypes do not match.
        std::printf("invoke(signer.code + verifier.data)... ");
        SealedObject mixed{signer.code, verifier.data, signer.otype};
        Result<u64> evil = sealing.invoke(mixed, sign, 0xCAFE);
        std::printf("%s\n", evil.ok()
                                ? "ESCAPED?!"
                                : "rejected (type violation)");

        // A compartment with a different authority cannot unseal ours.
        SealingRuntime stranger(ctx, 4);
        Result<u64> theft = stranger.invoke(signer, sign, 0);
        std::printf("foreign authority invoke... %s\n",
                    theft.ok() ? "ESCAPED?!" : "rejected");

        // State is preserved across invocations, privately.
        sealing.invoke(signer, sign, 1);
        sealing.invoke(signer, sign, 2);
        SandboxMethod count = [](GuestContext &c, const GuestPtr &state,
                                 u64) { return c.load<u64>(state, 8); };
        std::printf("signer was invoked %lu times (it kept count "
                    "privately)\n",
                    static_cast<unsigned long>(
                        sealing.invoke(signer, count, 0).value()));
        return 0;
    });
}
