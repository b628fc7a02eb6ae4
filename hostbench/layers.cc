#include "layers.h"

#include "mem/access.h"
#include "os/sysnum.h"

namespace hostbench
{

using namespace cheri;

void
MetricsTotals::add(const obs::Metrics &mx)
{
    for (Abi abi : {Abi::Mips64, Abi::CheriAbi, Abi::Hybrid}) {
        for (unsigned n = 0; n < numSysNums; ++n) {
            const obs::SyscallStats &s = mx.syscall(n, abi);
            syscalls += s.calls;
            syscallErrors += s.errors;
        }
        dtlbHits += mx.tlbCounter(abi, TlbDataHit);
        dtlbMisses += mx.tlbCounter(abi, TlbDataMiss);
        fetchHits += mx.tlbCounter(abi, TlbFetchHit);
        fetchMisses += mx.tlbCounter(abi, TlbFetchMiss);
    }
}

void
DispatchGaps::install(Kernel &kern)
{
    kern.setCheckHook([this](Process &, u64) {
        Clock::time_point now = Clock::now();
        if (have)
            gapsUs.push_back(secondsBetween(last, now) * 1e6);
        last = now;
        have = true;
    });
}

void
putMetricsTotals(Run &run, const MetricsTotals &t, double items)
{
    double dtlb = static_cast<double>(t.dtlbHits + t.dtlbMisses);
    double fetch = static_cast<double>(t.fetchHits + t.fetchMisses);
    run.layer["os.syscalls"] = ratio(static_cast<double>(t.syscalls), items);
    run.layer["os.syscall_errors"] =
        ratio(static_cast<double>(t.syscallErrors), items);
    run.layer["mem.dtlb_hit_ratio"] =
        ratio(static_cast<double>(t.dtlbHits), dtlb);
    run.layer["mem.dtlb_misses"] =
        ratio(static_cast<double>(t.dtlbMisses), items);
    // The decode cache reports its hits as iTLB hits, so the fetch
    // counters give both ratios.
    run.layer["mem.itlb_hit_ratio"] =
        ratio(static_cast<double>(t.fetchHits), fetch);
    run.layer["isa.decode_hit_ratio"] = run.layer["mem.itlb_hit_ratio"];
}

} // namespace hostbench
