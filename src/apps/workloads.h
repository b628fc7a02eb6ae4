/**
 * @file
 * Benchmark workloads for Figure 4.
 *
 * MiBench- and SPEC-shaped kernels, each implemented as guest code
 * whose every memory access flows through the capability model and the
 * cost model.  The paper's observed behaviours arise mechanically:
 *
 *  - ALU-dominated kernels (basicmath, adpcm, stringsearch) are within
 *    noise between ABIs;
 *  - pointer-dense kernels (patricia, astar, xalancbmk, qsort) pay
 *    cycles and L2 misses for 16-byte pointers;
 *  - security-sha *gains* from the separate capability register file
 *    (fewer integer spills);
 *  - dynamically linked code pays for GOT access, modulated by the
 *    CLC-immediate ISA extension (the initdb experiment).
 */

#ifndef CHERI_APPS_WORKLOADS_H
#define CHERI_APPS_WORKLOADS_H

#include <functional>
#include <string>
#include <vector>

#include "guest/context.h"
#include "libc/malloc.h"

namespace cheri::apps
{

/** Counter snapshot from one benchmark run. */
struct WorkloadResult
{
    std::string name;
    u64 instructions = 0;
    u64 cycles = 0;
    u64 l2Misses = 0;
    u64 codeBytes = 0;
};

struct Workload
{
    std::string name;
    /** The measured kernel (setup outside, like the paper's regions). */
    std::function<void(GuestContext &, GuestMalloc &)> run;
};

/** The Figure 4 workload set (excluding initdb, which lives in
 *  minidb.h as a macro-benchmark). */
const std::vector<Workload> &figure4Workloads();

/**
 * Run @p w in a fresh process under @p abi on a kernel configured by
 * @p cfg, measuring only the kernel region (counters reset after
 * setup).  A nonzero @p aslr_seed replaces cfg.aslrSeed.
 */
WorkloadResult runWorkload(const Workload &w, Abi abi,
                           KernelConfig cfg = {}, u64 aslr_seed = 0);

/** Relative overhead in percent: (cheri - mips) / mips * 100. */
double overheadPct(u64 mips, u64 cheri);

/** Sort an array of @p n record pointers by their records' first
 *  field (capability-preserving under CheriABI). */
void gQsortPtrs(GuestContext &ctx, const GuestPtr &arr, u64 n);

} // namespace cheri::apps

#endif // CHERI_APPS_WORKLOADS_H
