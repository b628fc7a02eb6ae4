/**
 * @file
 * Observation seams shared by the workloads: counters read from the
 * simulator's public telemetry (obs::Metrics, the kernel trace sink,
 * the check hook), never from inside src/.
 */

#ifndef CHERI_HOSTBENCH_LAYERS_H
#define CHERI_HOSTBENCH_LAYERS_H

#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "os/kernel.h"

namespace hostbench
{

/** Kernel::setTrace sink counting capability derivations. */
class DerivationCounter : public cheri::TraceSink
{
  public:
    void derive(cheri::DeriveSource, const cheri::Capability &) override
    {
        ++n;
    }
    cheri::u64 n = 0;
};

/** Syscall and TLB counters summed over ABIs from a metrics registry. */
struct MetricsTotals
{
    cheri::u64 syscalls = 0;
    cheri::u64 syscallErrors = 0;
    cheri::u64 dtlbHits = 0;
    cheri::u64 dtlbMisses = 0;
    cheri::u64 fetchHits = 0;
    cheri::u64 fetchMisses = 0;

    void add(const cheri::obs::Metrics &mx);
};

/**
 * Times the gaps between consecutive Kernel::setCheckHook callbacks
 * (syscall dispatches).  Installed only where the benchmark owns the
 * kernel's hook.
 */
class DispatchGaps
{
  public:
    void install(cheri::Kernel &kern);
    /** Forget the previous callback (a new item or kernel starts). */
    void restart() { have = false; }
    std::vector<double> gapsUs;

  private:
    bool have = false;
    Clock::time_point last;
};

/** Fill the syscall and TLB per-layer metrics of @p run from @p t,
 *  per item over @p items traced items. */
void putMetricsTotals(Run &run, const MetricsTotals &t, double items);

} // namespace hostbench

#endif // CHERI_HOSTBENCH_LAYERS_H
