/**
 * @file
 * The kernel's counter sets, and the seam the metrics registry reads
 * them through.
 *
 * Each counter set has exactly one owner: the kernel keeps memory
 * pressure, FD I/O, revocation and hardening; the scheduler keeps
 * SchedStats.  obs::Metrics holds no copy.  It reads the sets of the
 * kernel it is bound to through CounterOwner, which lives here because
 * the observability library sits below the kernel and cannot link it.
 *
 * Every set lists its fields once, in visit(): the metrics-JSON key and
 * a reference to the counter.  The JSON emitter, the CHRIIMG1 image,
 * the replay digest and the registry's retained totals all iterate that
 * list, so a new field is one line here.
 */

#ifndef CHERI_OS_STATS_H
#define CHERI_OS_STATS_H

#include <string_view>

#include "cap/types.h"

namespace cheri
{

/** Memory-pressure accounting (metrics "memory" section). */
struct MemPressureStats
{
    u64 reclaimPasses = 0;
    u64 pagesReclaimed = 0;
    u64 oomKills = 0;
    /** Syscall-level E_NOMEM failures caused by memory pressure. */
    u64 enomemErrors = 0;

    template <class F>
    void
    visit(F &&f)
    {
        f("reclaim_passes", reclaimPasses);
        f("pages_reclaimed", pagesReclaimed);
        f("oom_kills", oomKills);
        f("enomem", enomemErrors);
    }
};

/** Revocation accounting (metrics "revocation" section): the ablation
 *  axis is pagesScanned vs pagesSkippedClean (what cap-dirty tracking
 *  saves) and incrementalSlices (how the work is amortized). */
struct RevocationStats
{
    u64 epochsOpened = 0;
    u64 epochsClosed = 0;
    /** Epochs torn down without closing (exit/execve/OOM kill). */
    u64 epochsAborted = 0;
    u64 pagesScanned = 0;
    /** Content pages an epoch skipped because cap-clean. */
    u64 pagesSkippedClean = 0;
    u64 granulesVisited = 0;
    u64 tagsRevoked = 0;
    u64 incrementalSlices = 0;
    u64 syncSweeps = 0;
    /** Modelled cycles charged inside epochs (open to close). */
    u64 cyclesInEpochs = 0;

    template <class F>
    void
    visit(F &&f)
    {
        f("epochs_opened", epochsOpened);
        f("epochs_closed", epochsClosed);
        f("epochs_aborted", epochsAborted);
        f("pages_scanned", pagesScanned);
        f("pages_skipped_clean", pagesSkippedClean);
        f("granules_visited", granulesVisited);
        f("tags_revoked", tagsRevoked);
        f("incremental_slices", incrementalSlices);
        f("sync_sweeps", syncSweeps);
        f("cycles_in_epochs", cyclesInEpochs);
    }
};

/** Scheduler accounting (metrics "sched" section), owned by the
 *  scheduler behind SchedulerIface::stats(). */
struct SchedStats
{
    /** Slices that ran a different (pid, tid) than the previous one. */
    u64 contextSwitches = 0;
    /** Slices ended with the context still runnable: time-slice (step
     *  budget) expiry or a directed yield (thr_switch). */
    u64 preemptions = 0;
    /** Total slices dispatched (interpreted and hosted). */
    u64 slices = 0;
    u64 blocksWait4 = 0;
    u64 blocksEvent = 0;
    u64 blocksSleep = 0;
    /** FD blocks: pipe/pty read, write, and select parks. */
    u64 blocksFd = 0;
    /** Blocked contexts returned to the run queue. */
    u64 wakes = 0;
    /** A high-water mark: folded by max, every other field by sum. */
    u64 maxRunQueueDepth = 0;
    /** Idle virtual-clock advances to the earliest sleep deadline. */
    u64 idleAdvances = 0;
    /** Guest instructions retired under the scheduler. */
    u64 stepsExecuted = 0;

    template <class F>
    void
    visit(F &&f)
    {
        f("context_switches", contextSwitches);
        f("preemptions", preemptions);
        f("slices", slices);
        f("blocks_wait4", blocksWait4);
        f("blocks_event", blocksEvent);
        f("blocks_sleep", blocksSleep);
        f("blocks_fd", blocksFd);
        f("wakes", wakes);
        f("max_run_queue_depth", maxRunQueueDepth);
        f("idle_advances", idleAdvances);
        f("steps_executed", stepsExecuted);
    }
};

/** Blocking-FD-I/O accounting (metrics "fd" section). */
struct FdIoStats
{
    /** Contexts parked by read/write/select would-block. */
    u64 blocks = 0;
    /** Contexts woken by an FD wake edge (data, space, close). */
    u64 wakes = 0;
    /** Would-block reported to the caller (O_NONBLOCK or no
     *  scheduler context to park). */
    u64 eagainErrors = 0;
    /** Writes failed with EPIPE (reader side gone). */
    u64 epipeErrors = 0;
    /** Channel writes that transferred fewer bytes than asked
     *  (caller loops; the next write blocks or E_AGAINs). */
    u64 partialWrites = 0;
    /** Blocked selects woken by their timeout, not readiness. */
    u64 selectTimeouts = 0;

    template <class F>
    void
    visit(F &&f)
    {
        f("blocks", blocks);
        f("wakes", wakes);
        f("eagain_errors", eagainErrors);
        f("epipe_errors", epipeErrors);
        f("partial_writes", partialWrites);
        f("select_timeouts", selectTimeouts);
    }
};

/** Kernel-hardening accounting (metrics "hardening" section).  These
 *  survive the kernel's transactional panic reset. */
struct HardeningStats
{
    /** CHERI_KASSERT failures captured by the structured panic path
     *  (snapshot + report + transactional reset, never a host
     *  abort). */
    u64 panics = 0;
    /** Scheduler idle passes whose watchdog scan found a non-empty
     *  stuck set (wait-for cycle or orphaned wait). */
    u64 deadlocksDetected = 0;
    /** Victims killed under DeadlockPolicy::Kill. */
    u64 deadlocksKilled = 0;
    /** Injected memory corruption events detected and degraded to a
     *  guest-visible CapFault::MachineCheck. */
    u64 machineChecks = 0;

    template <class F>
    void
    visit(F &&f)
    {
        f("panics", panics);
        f("deadlocks_detected", deadlocksDetected);
        f("deadlocks_killed", deadlocksKilled);
        f("machine_checks", machineChecks);
    }
};

/**
 * Add @p from into @p into field by field: sums, except the
 * max_run_queue_depth high-water mark, which takes the max.
 */
template <class S>
void
foldStats(S &into, S from)
{
    u64 vals[16] = {};
    unsigned n = 0;
    from.visit([&](std::string_view, u64 &v) { vals[n++] = v; });
    n = 0;
    into.visit([&](std::string_view key, u64 &v) {
        u64 add = vals[n++];
        v = key == "max_run_queue_depth" ? (v > add ? v : add) : v + add;
    });
}

/**
 * A kernel as its metrics registry sees it: the owner of the counter
 * sets the registry reports.
 */
class CounterOwner
{
  public:
    virtual const MemPressureStats &memPressure() const = 0;
    virtual const RevocationStats &revocationStats() const = 0;
    /** nullptr when no scheduler is installed. */
    virtual const SchedStats *schedulerStats() const = 0;
    virtual const FdIoStats &fdIoStats() const = 0;
    virtual const HardeningStats &hardeningStats() const = 0;
    /** The registry this owner reports into is being destroyed: drop
     *  every pointer into it. */
    virtual void metricsDestroyed() = 0;

  protected:
    ~CounterOwner() = default;
};

/** The five sets side by side: a registry's totals for detached
 *  kernels, and the sum it reports. */
struct CounterTotals
{
    MemPressureStats mem;
    RevocationStats rev;
    SchedStats sched;
    FdIoStats fd;
    HardeningStats hard;

    /** Fold @p kern's live sets in. */
    void
    add(const CounterOwner &kern)
    {
        foldStats(mem, kern.memPressure());
        foldStats(rev, kern.revocationStats());
        if (const SchedStats *s = kern.schedulerStats())
            foldStats(sched, *s);
        foldStats(fd, kern.fdIoStats());
        foldStats(hard, kern.hardeningStats());
    }

    template <class F>
    void
    visitSets(F &&f)
    {
        f(mem);
        f(rev);
        f(sched);
        f(fd);
        f(hard);
    }
};

} // namespace cheri

#endif // CHERI_OS_STATS_H
