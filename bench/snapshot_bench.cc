/**
 * @file
 * Snapshot bench: checkpoint/restore throughput.
 *
 * Builds a populated kernel — several processes per ABI, each with an
 * exec'd image plus an anonymous region with every page touched (and
 * therefore resident and tagged-frame-backed) — then times repeated
 * snap::save() and snap::restore() round trips.  The figure of merit
 * is image megabytes per wall-clock second in each direction, plus
 * the image size itself (bytes per resident page), since the image is
 * what a fuzzer failure artifact costs on disk.
 *
 * Restore is timed against the *same* kernel instance: each iteration
 * wipes the previous state and rebuilds from the image, which is
 * exactly the forensic `cheri_replay restore` path.
 *
 * Image fidelity is gated in every mode: the run fails unless every
 * re-save is byte-identical to the first image and saving the kernel
 * restored from that image reproduces it byte for byte.  Throughput is
 * not gated (wall-clock depends on the host).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "os/kernel.h"
#include "os/snapshot/snapshot.h"
#include "os/sys_invoke.h"

using namespace cheri;

namespace
{

constexpr u64 kProcs = 6;
constexpr u64 kPagesPerProc = 32;
constexpr int kReps = 20;

SelfObject
benchProgram()
{
    SelfObject prog;
    prog.name = "snapbench";
    prog.textSize = 0x2000;
    prog.data.resize(256, 0xa5);
    prog.bssSize = 128;
    prog.symbols = {
        {"counter", 0, 8, false},
        {"entry", 0, 0x100, true},
    };
    prog.relocs = {
        {RelocKind::CapGlobal, 0, 0, "counter"},
        {RelocKind::CapFunction, 1, 0, "entry"},
    };
    return prog;
}

/** Populate @p kern: kProcs processes, alternating ABI, each with an
 *  anon region whose every page is dirtied. */
bool
populate(Kernel &kern)
{
    SelfObject prog = benchProgram();
    for (u64 i = 0; i < kProcs; ++i) {
        Abi abi = (i & 1) ? Abi::Mips64 : Abi::CheriAbi;
        Process *p = kern.spawn(abi, "snapbench");
        if (!p || kern.execve(*p, prog, {"snapbench"}, {}) != E_OK)
            return false;
        auto mk = sysInvoke(kern, *p, SysNum::Mmap,
                            {SysArg::p(UserPtr::null()),
                             SysArg::i(kPagesPerProc * pageSize),
                             SysArg::i(PROT_READ | PROT_WRITE),
                             SysArg::i(MAP_ANON | MAP_PRIVATE)});
        if (mk.res.failed())
            return false;
        u64 base = mk.out.addr();
        for (u64 pg = 0; pg < kPagesPerProc; ++pg) {
            u8 byte = static_cast<u8>(i * 64 + pg);
            if (p->as().writeBytes(base + pg * pageSize + 8, &byte, 1))
                return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report rep("snapshot_bench",
                      "Snapshot: checkpoint/restore throughput", argc, argv);
    Kernel kern;
    if (!populate(kern)) {
        std::fprintf(stderr, "snapshot_bench: setup failed\n");
        return 1;
    }

    std::string err;
    std::vector<u8> image = snap::save(kern, &err);
    if (image.empty()) {
        std::fprintf(stderr, "snapshot_bench: save failed: %s\n",
                     err.c_str());
        return 1;
    }

    u64 resavesDiffering = 0;
    auto t0 = bench::Clock::now();
    for (int i = 0; i < kReps; ++i)
        resavesDiffering += snap::save(kern, &err) != image;
    double saveSec = bench::secondsSince(t0);

    t0 = bench::Clock::now();
    for (int i = 0; i < kReps; ++i) {
        if (!snap::restore(kern, image, &err)) {
            std::fprintf(stderr, "snapshot_bench: restore failed: %s\n",
                         err.c_str());
            return 1;
        }
    }
    double restoreSec = bench::secondsSince(t0);

    double mb = static_cast<double>(image.size()) / (1024.0 * 1024.0);
    rep.metric("procs", "processes", kProcs);
    rep.metric("pages_per_proc", "resident pages per process",
               kPagesPerProc);
    rep.metric("image_bytes", "image size (bytes)", u64{image.size()});
    rep.metric("reps", "repetitions", u64{kReps});
    rep.metric("save_mb_per_s", "save (MB/s)", mb * kReps / saveSec);
    rep.metric("restore_mb_per_s", "restore (MB/s)",
               mb * kReps / restoreSec);

    using bench::Report;
    rep.atMost("resaves_differing", resavesDiffering, 0,
               Report::Enforce::Always);
    rep.require("restore_roundtrip_identical",
                snap::save(kern, &err) == image, Report::Enforce::Always);
    return rep.finish();
}
