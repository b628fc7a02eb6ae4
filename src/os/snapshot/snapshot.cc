/**
 * @file
 * Checkpoint/restore implementation: the snap::Access seam.
 *
 * Everything here is a static member of snap::Access, the single friend
 * every serialized class names.  The image is a little-endian byte
 * stream of tagged sections in dependency order — config, frames, swap,
 * vfs, processes, kernel scalars, injector, metrics, scheduler — so a
 * truncated image fails cleanly partway through and the abort path
 * (resetToEmpty) can always rebuild a usable kernel.
 *
 * Save and restore walk the same code: each serialized type lists its
 * fields once, in an `io(Ar &, T &)` template over the symmetric
 * archive (archive.h), and sections() lays out the whole image for both
 * directions.  What stays one-way is only what has no counterpart:
 * save's refusals and reachability census (which number the shared
 * frames, channels, vnodes and open files), and restore's object
 * construction, id-to-object lookups with their range checks, and the
 * commit once the whole image has parsed.
 */

#include "os/snapshot/snapshot.h"

#include <concepts>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"
#include "os/snapshot/archive.h"

namespace cheri::snap
{

namespace
{

/** Image magic: 8 bytes at offset 0. */
constexpr char imageMagic[8] = {'C', 'H', 'R', 'I', 'I', 'M', 'G', '1'};

/** Section tags, in stream order. */
enum SectionTag : u32
{
    SEC_CONFIG = 0x43484101,
    SEC_FRAMES,
    SEC_SWAP,
    SEC_VFS,
    SEC_PROCS,
    SEC_KERNEL,
    SEC_INJECT,
    SEC_METRICS,
    SEC_SCHED,
    SEC_END,
};

/** @p T is @p U, or const @p U when saving. */
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/**
 * Shared objects (frames, channels, vnodes, open files) appear once in
 * the image and are referenced by 1-based id, 0 meaning null.  Save
 * numbers them in census order; restore collects them as their section
 * creates them.  obj[id] is the object either way.
 */
template <class T>
struct Ids
{
    std::vector<std::shared_ptr<T>> obj{nullptr};
    /** Save only: object to id. */
    std::map<const T *, u32> id;

    /** Number @p p if it is new; false for null or already numbered. */
    bool
    note(const std::shared_ptr<T> &p)
    {
        if (!p || id.count(p.get()))
            return false;
        id[p.get()] = static_cast<u32>(obj.size());
        obj.push_back(p);
        return true;
    }

    u64 size() const { return obj.size() - 1; }
};

/** What the AddressSpace and Process constructors need: read before
 *  either object exists. */
struct Identity
{
    u64 pid = 0;
    u64 ppid = 0;
    Abi abi = Abi::Mips64;
    std::string name;
    MachineFeatures features;
};

std::vector<u8>
refuse(std::string *error, std::string msg)
{
    if (error)
        *error = std::move(msg);
    return {};
}

} // namespace

struct Access
{
    /** Everything the sections share beyond the kernel itself. */
    struct Tables
    {
        Ids<Frame> frames;
        Ids<ByteChannel> chans;
        Ids<VNode> nodes;
        Ids<OpenFile> files;
        /** Save: the kernel's.  Restore: applied at commit. */
        KernelConfig cfg;
        /** Highest channel wait token; restore reserves past it. */
        u64 maxWaitToken = 0;
        /** Save: the scheduler to capture (null when none). */
        const sched::Scheduler *sched = nullptr;
        /** Restore: the image carried a metrics section. */
        bool hadMetrics = false;
    };

    /** @name Containers (sequences are archive.h's seq) */
    /// @{
    /** A keyed table: its count, then each (key, value) through @p fn,
     *  in key order.  Restore replaces the contents; a repeated key
     *  keeps its last value. */
    template <class Ar, class M, class Fn>
    static void
    entries(Ar &ar, M &m, Fn &&fn)
    {
        u64 n = m.size();
        ar.count(n);
        if constexpr (Ar::loading) {
            m.clear();
            for (u64 i = 0; i < n; ++i) {
                typename M::key_type k{};
                typename M::mapped_type v{};
                fn(k, v);
                m.insert_or_assign(m.end(), std::move(k), std::move(v));
            }
        } else {
            for (auto &[k, v] : m)
                fn(k, v);
        }
    }

    /** A shared-object table: its count, then each object's record
     *  through @p fn.  Restore bounds the count by @p minRecord, the
     *  smallest record, and creates each object with @p make just
     *  before its record, or all of them first when records refer to
     *  later ones (@p upfront). */
    template <class Ar, class T, class Make, class Fn>
    static void
    objects(Ar &ar, Ids<T> &ids, u64 minRecord, Make &&make, Fn &&fn,
            bool upfront = false)
    {
        u64 n = ids.size();
        ar.count(n, minRecord);
        if constexpr (Ar::loading) {
            ids.obj.reserve(n + 1);
            for (u64 i = 0; upfront && i < n; ++i)
                ids.obj.push_back(make());
        }
        for (u64 i = 1; i <= n; ++i) {
            if constexpr (Ar::loading) {
                if (!upfront)
                    ids.obj.push_back(make());
                fn(*ids.obj[i]);
            } else {
                fn(std::as_const(*ids.obj[i]));
            }
        }
    }

    /** A reference to a shared object, by id.  Restore range-checks it
     *  (and rejects null unless @p nullable) as soon as it is read. */
    template <class Ar, class P, class T>
    static void
    ref(Ar &ar, P &p, Ids<T> &ids, const char *corrupt, bool nullable = true)
    {
        u32 id = 0;
        if constexpr (Ar::saving)
            id = p ? ids.id.at(p.get()) : 0;
        ar.u32(id);
        if constexpr (Ar::loading) {
            if ((id == 0 && !nullable) || id > ids.size())
                throw ParseError(corrupt);
            p = ids.obj[id];
        }
    }

    /** A counter set, field by field in its visit() order. */
    template <class Ar, class S>
    static void
    counters(Ar &ar, S &set)
    {
        auto each = [&ar](std::string_view, u64 &v) { ar.u64(v); };
        if constexpr (Ar::saving)
            std::remove_const_t<S>(set).visit(each);
        else
            set.visit(each);
    }
    /// @}

    /** @name Field lists, one per serialized type */
    /// @{
    template <class Ar, Is<Capability> T>
    static void
    io(Ar &ar, T &c)
    {
        u64 lo = static_cast<u64>(c._top);
        u64 hi = static_cast<u64>(c._top >> 64);
        ar.flag(c._tag);
        ar.u64(c._base, lo, hi, c._address);
        ar.u32(c._perms, c._otype);
        ar.enumeration(c._format, 1, "cap format");
        ar.u64(c._rawMeta);
        ar.flag(c._hasRawMeta);
        if constexpr (Ar::loading)
            c._top = (static_cast<u128>(hi) << 64) | lo;
    }

    template <class Ar, Is<ThreadRegs> T>
    static void
    io(Ar &ar, T &t)
    {
        io(ar, t.pcc);
        io(ar, t.ddc);
        for (auto &c : t.c)
            io(ar, c);
        for (auto &x : t.x)
            ar.u64(x);
    }

    template <class Ar, Is<isa::InterpResult> T>
    static void
    io(Ar &ar, T &res)
    {
        ar.enumeration(res.status, 4, "status");
        ar.u64(res.steps);
        ar.enumeration(res.fault, numCapFaults - 1, "fault");
        ar.u64(res.faultPc, res.faultAddr);
        ar.u8(res.faultOp);
    }

    template <class Ar, Is<obs::Histogram> T>
    static void
    io(Ar &ar, T &h)
    {
        for (auto &b : h.buckets)
            ar.u64(b);
        ar.u64(h.count, h.sum, h.min, h.max);
    }

    template <class Ar, Is<MachineFeatures> T>
    static void
    io(Ar &ar, T &f)
    {
        ar.flag(f.largeClcImmediate, f.asanInstrumentation);
    }

    /** The config section: restore applies it only at commit. */
    template <class Ar, Is<KernelConfig> T>
    static void
    io(Ar &ar, T &cfg)
    {
        ar.enumeration(cfg.capFormat, 1, "cap format");
        ar.enumeration(cfg.swapPolicy, 1, "swap policy");
        io(ar, cfg.features);
        ar.u64(cfg.stackSize, cfg.aslrSeed, cfg.frameCapacity,
               cfg.swapSlotBudget, cfg.revokeSliceBudget,
               cfg.timeSliceSteps);
    }

    /** Physical-memory accounting (the frames themselves follow). */
    template <class Ar, Is<PhysMem> T>
    static void
    io(Ar &ar, T &phys)
    {
        ar.u64(phys.allocated, phys.failed, phys.reclaims, phys.capacity);
    }

    /** A frame: its bytes in one bulk copy, then its tagged granules.
     *  The tag list is walked by forEachTagged on save and re-planted
     *  by writeCap on restore — bytes first, because Frame::write
     *  clears the tags of every granule it touches. */
    template <class Ar, Is<Frame> T>
    static void
    io(Ar &ar, T &f)
    {
        u64 nTags = f.taggedCount();
        if constexpr (Ar::saving) {
            ar.bytes(f.bytes().data(), pageSize);
            ar.count(nTags);
            f.forEachTagged([&](u64 off, const Capability &c) {
                ar.u64(off);
                io(ar, c);
            });
        } else {
            std::array<u8, pageSize> buf;
            ar.bytes(buf.data(), pageSize);
            f.write(0, buf.data(), pageSize);
            ar.count(nTags);
            for (u64 i = 0; i < nTags; ++i) {
                u64 off = 0;
                ar.u64(off);
                if (off >= pageSize || off % capSize != 0)
                    throw ParseError("corrupt tag offset");
                Capability c;
                io(ar, c);
                f.writeCap(off, c);
            }
        }
    }

    /** Swap-device scalars and its slot table, in slot order. */
    template <class Ar, Is<SwapDevice> T>
    static void
    io(Ar &ar, T &swap)
    {
        ar.enumeration(swap._policy, 1, "swap policy");
        ar.u64(swap.budget, swap.nextSlot, swap.swapOuts, swap.tagsPreserved,
               swap.swapOutFailures, swap.swapInFailures,
               swap.sweepScanFailures, swap.discards);
        auto slot = [&](auto &id, auto &s) {
            ar.u64(id);
            ar.bytes(s.bytes.data(), pageSize);
            seq(ar, s.tagMeta, [&](auto &tm) {
                ar.u64(tm.first);
                io(ar, tm.second);
            });
            ar.u64(s.refs);
        };
        u64 n = swap.slots.size();
        ar.count(n);
        if constexpr (Ar::saving) {
            // unordered_map: emit in sorted slot order for determinism.
            std::map<u64, const SwapDevice::Slot *> sorted;
            for (const auto &[id, s] : swap.slots)
                sorted[id] = &s;
            for (auto [id, s] : sorted)
                slot(id, *s);
        } else {
            for (u64 i = 0; i < n; ++i) {
                u64 id = 0;
                SwapDevice::Slot s;
                slot(id, s);
                if (!swap.slots.emplace(id, std::move(s)).second)
                    throw ParseError("duplicate swap slot");
            }
        }
    }

    template <class Ar, Is<ByteChannel> T>
    static void
    io(Ar &ar, T &ch)
    {
        seq(ar, ch.buf, [&](auto &b) { ar.u8(b); });
        ar.flag(ch.writerClosed, ch.readerClosed);
        ar.u64(ch.readWait, ch.writeWait);
    }

    template <class Ar, Is<VNode> T>
    static void
    io(Ar &ar, T &n, Tables &t)
    {
        ar.enumeration(n.kind, 4, "node kind");
        ar.str(n.name);
        u64 len = n.data.size();
        ar.count(len);
        if constexpr (Ar::loading)
            n.data.resize(len);
        ar.bytes(n.data.data(), len);
        entries(ar, n.children, [&](auto &name, auto &child) {
            ar.str(name);
            ref(ar, child, t.nodes, "corrupt vnode id", false);
        });
        ref(ar, n.readCh, t.chans, "corrupt channel id");
        ref(ar, n.writeCh, t.chans, "corrupt channel id");
    }

    template <class Ar, Is<OpenFile> T>
    static void
    io(Ar &ar, T &of, Tables &t)
    {
        ref(ar, of.node, t.nodes, "corrupt vnode id", false);
        ar.u64(of.offset);
        ar.u32(of.flags);
    }

    template <class Ar, Is<Identity> T>
    static void
    io(Ar &ar, T &id)
    {
        ar.u64(id.pid, id.ppid);
        ar.enumeration(id.abi, 2, "abi");
        ar.str(id.name);
        io(ar, id.features);
    }

    /** A mapping's fields after its start, which is its table key. */
    template <class Ar, Is<Mapping> T>
    static void
    io(Ar &ar, T &m)
    {
        ar.u64(m.len);
        ar.u32(m.prot);
        ar.enumeration(m.kind, 9, "map kind");
        ar.flag(m.shared);
        ar.str(m.name);
        ar.u64(m.backingOffset);
    }

    template <class Ar, Is<AddressSpace::Pte> T>
    static void
    io(Ar &ar, T &pte, Tables &t)
    {
        ref(ar, pte.frame, t.frames, "corrupt frame id");
        ar.u32(pte.prot);
        ar.flag(pte.cow, pte.shared, pte.swapped);
        ar.u64(pte.swapSlot, pte.lastUse);
        ar.flag(pte.capDirty);
        ar.u64(pte.sweptEpoch, pte.queuedEpoch);
    }

    template <class Ar, Is<AddressSpace> T>
    static void
    io(Ar &ar, T &as, Tables &t)
    {
        ar.u64(as._principal, as.aslrSlide);
        ar.enumeration(as.fmt, 1, "cap format");
        io(ar, as.root);
        ar.u64(as.useClock);
        ar.enumeration(as.walkFault, numCapFaults - 1, "walk fault");
        ar.u64(as.activeSweepEpoch);
        seq(ar, as.redirtied, [&](auto &va) { ar.u64(va); });
        entries(ar, as.mappings, [&](auto &start, auto &m) {
            ar.u64(start);
            if constexpr (Ar::loading)
                m.start = start;
            io(ar, m);
        });
        entries(ar, as.pages, [&](auto &va, auto &pte) {
            ar.u64(va);
            io(ar, pte, t);
        });
    }

    /** Cache state.  The geometry is fixed by the cost model and is
     *  written only to be checked. */
    template <class Ar, Is<Cache> T>
    static void
    io(Ar &ar, T &c)
    {
        u64 lineBytes = c.lineBytes;
        u64 numSets = c.numSets;
        u32 ways = c.ways;
        ar.u64(lineBytes, numSets);
        ar.u32(ways);
        if (lineBytes != c.lineBytes || numSets != c.numSets ||
            ways != c.ways)
            throw ParseError("cache geometry mismatch");
        ar.u64(c.tick, c._hits, c._misses);
        u64 nWays = c.sets.size();
        ar.u64(nWays);
        if (nWays != c.sets.size())
            throw ParseError("cache way-array size mismatch");
        for (auto &way : c.sets) {
            ar.u64(way.tag);
            ar.flag(way.valid);
            ar.u64(way.lru);
        }
    }

    /** Cost-model scalars and caches (the ABI, features and format
     *  come from the process identity). */
    template <class Ar, Is<CostModel> T>
    static void
    io(Ar &ar, T &cm)
    {
        ar.u64(cm._instructions, cm._cycles, cm._codeBytes,
               cm._itlbAccesses, cm._itlbMisses, cm._dtlbAccesses,
               cm._dtlbMisses, cm.pc, cm.codeFootprint);
        for (auto *c :
             {&cm.cacheHier.l1i, &cm.cacheHier.l1d, &cm.cacheHier.l2})
            io(ar, *c);
    }

    template <class Ar, Is<ThreadRecord> T>
    static void
    io(Ar &ar, T &t)
    {
        ar.u64(t.tid);
        io(ar, t.saved);
        io(ar, t.stackCap);
        ar.flag(t.live);
    }

    template <class Ar, Is<SigAction> T>
    static void
    io(Ar &ar, T &a)
    {
        ar.enumeration(a.kind, 2, "sigaction kind");
        ar.u64(a.handlerId);
    }

    template <class Ar, Is<DeathInfo> T>
    static void
    io(Ar &ar, T &d)
    {
        ar.u32(d.signal);
        ar.enumeration(d.fault, numCapFaults - 1, "death fault");
        ar.u64(d.faultAddr);
        ar.str(d.detail);
        io(ar, d.faultCap);
        ar.flag(d.faultCapKnown, d.deadlock);
    }

    /** A process after its identity and address space. */
    template <class Ar, Is<Process> T>
    static void
    io(Ar &ar, T &p, Tables &t)
    {
        io(ar, p._regs);
        io(ar, p._cost);
        seq(ar, p.fds, [&](auto &of) {
            ref(ar, of, t.files, "corrupt open-file id");
        });
        seq(ar, p.threads, [&](auto &th) { io(ar, th); });
        ar.u64(p.curThread, p.nextTid);
        // curThread is a tid, not an index: the main thread is tid 0
        // and only spawned threads get records, so the only sound
        // bound is the allocator's high-water mark.
        if constexpr (Ar::loading) {
            if (p.curThread >= p.nextTid)
                throw ParseError("corrupt current-thread id");
        }
        for (auto &a : p.sigActions)
            io(ar, a);
        ar.u64(p.sigPending, p.sigMask);
        for (auto *c : {&p.stackCap, &p.argvCap, &p.envvCap, &p.auxvCap,
                        &p.trampolineCap})
            io(ar, *c);
        ar.u32(p.argc, p.envc);
        ar.u64(p.heapHint, p.brkBase, p.brkCur, p.brkLimit);
        ar.flag(p._exited);
        ar.u32(p._exitStatus);
        bool dead = p._death.has_value();
        ar.flag(dead);
        if (dead) {
            if constexpr (Ar::loading)
                p._death.emplace();
            io(ar, *p._death);
        }
    }

    template <class Ar, Is<KEvent> T>
    static void
    io(Ar &ar, T &e)
    {
        ar.u32(e.ident);
        ar.u64(e.filter);
        io(ar, e.udata);
    }

    template <class Ar, Is<RevocationEpoch> T>
    static void
    io(Ar &ar, T &ep)
    {
        auto range = [&](auto &r) { ar.u64(r.first, r.second); };
        ar.flag(ep.open);
        ar.u64(ep.id);
        seq(ar, ep.ranges, range);
        seq(ar, ep.worklist, [&](auto &va) { ar.u64(va); });
        ar.flag(ep.forceFull, ep.incremental);
        ar.u64(ep.revoked, ep.cyclesAtOpen);
        seq(ar, ep.closedRanges, range);
        ar.u64(ep.closeSeq);
    }

    /** An injector arm (the tap is environment, not state). */
    template <class Ar, Is<FaultInjector::Arm> T>
    static void
    io(Ar &ar, T &arm)
    {
        ar.enumeration(arm.mode, 2, "inject mode");
        ar.u64(arm.countdown, arm.period, arm.lcg, arm.seen, arm.fired);
    }

    template <class Ar, Is<obs::SyscallStats> T>
    static void
    io(Ar &ar, T &s)
    {
        ar.u64(s.calls, s.errors);
        io(ar, s.cycles);
    }

    template <class Ar, Is<obs::FaultRecord> T>
    static void
    io(Ar &ar, T &f)
    {
        ar.enumeration(f.cause, numCapFaults - 1, "fault cause");
        ar.u64(f.pc, f.addr);
        ar.enumeration(f.abi, 2, "fault abi");
        ar.u16(f.sysnum);
        ar.enumeration(f.provenance, numDeriveSources - 1, "provenance");
        ar.flag(f.provenanceKnown);
    }

    template <class Ar, Is<obs::CostSnapshot> T>
    static void
    io(Ar &ar, T &c)
    {
        ar.str(c.label);
        ar.enumeration(c.abi, 2, "cost abi");
        ar.u64(c.instructions, c.cycles, c.l1dMisses, c.l2Misses,
               c.codeBytes, c.itlbMisses, c.dtlbMisses);
    }

    /** What the registry owns; the kernel's counter sets are the
     *  kernel section's. */
    template <class Ar, Is<obs::Metrics> T>
    static void
    io(Ar &ar, T &m)
    {
        for (auto &perAbi : m.sys)
            for (auto &s : perAbi)
                io(ar, s);
        for (auto &perAbi : m.insnMix)
            for (auto &v : perAbi)
                ar.u64(v);
        for (auto &perAbi : m.tlb)
            for (auto &v : perAbi)
                ar.u64(v);
        seq(ar, m._faults, [&](auto &f) { io(ar, f); });
        ar.u64(m.faultsDropped);
        for (auto &v : m.faultsByCause)
            ar.u64(v);
        entries(ar, m._threadSteps, [&](auto &key, auto &steps) {
            ar.u64(key.first, key.second, steps);
        });
        counters(ar, m.chk);
        counters(ar, m.snp);
        seq(ar, m.costs, [&](auto &c) { io(ar, c); });
        for (auto &v : m.deriveCounts)
            ar.u64(v);
        entries(ar, m.provenance, [&](auto &key, auto &src) {
            ar.u64(key.first, key.second);
            ar.enumeration(src, numDeriveSources - 1, "provenance");
        });
        ar.u64(m.currentSys);
        CounterTotals kept = m.kept;
        kept.visitSets([&](auto &set) { counters(ar, set); });
        if constexpr (Ar::loading)
            m.kept = kept;
    }

    /** A scheduler context's scalars.  @p state and @p retired are
     *  passed apart: save substitutes the running context's state and
     *  reads the step count from its interpreter. */
    template <class Ar, Is<sched::ExecContext> T>
    static void
    io(Ar &ar, T &ctx, sched::ExecContext::State &state, u64 &retired)
    {
        ar.u64(ctx.pid, ctx.tid);
        ar.enumeration(state, 3, "context state");
        ar.enumeration(ctx.blockKind, 4, "block kind");
        ar.u64(ctx.blockArg);
        ar.flag(ctx.restartOnWake);
        seq(ar, ctx.fdChans, [&](auto &chan) { ar.u64(chan); });
        ar.flag(ctx.fdDeadlineArmed);
        ar.u64(ctx.fdDeadline);
        ar.flag(ctx.fdTimedOut);
        io(ar, ctx.last);
        ar.u64(ctx.stepLimit, ctx.readyBaseSteps, ctx.slices, retired);
    }

    static sched::ExecContext *
    findContext(sched::Scheduler &sch, u64 pid, u64 tid, const char *what)
    {
        auto it = sch.ctxs.find({pid, tid});
        if (it == sch.ctxs.end())
            throw ParseError(std::string("queue references unknown "
                                         "context: ") +
                             what);
        return it->second.get();
    }

    /** A queued context, by its (pid, tid) key. */
    template <class Ar, class S, class P>
    static void
    queued(Ar &ar, S &sch, P &ctx, const char *what)
    {
        u64 pid = 0, tid = 0;
        if constexpr (Ar::saving) {
            pid = ctx->pid;
            tid = ctx->tid;
        }
        ar.u64(pid, tid);
        if constexpr (Ar::loading)
            ctx = findContext(sch, pid, tid, what);
    }

    template <class Ar, Is<sched::Scheduler> T, class K>
    static void
    io(Ar &ar, T &sch, K &kern)
    {
        using State = sched::ExecContext::State;
        ar.u64(sch.vclock);
        counters(ar, sch.st);
        u64 nCtx = sch.ctxs.size();
        ar.count(nCtx);
        if constexpr (Ar::saving) {
            for (const auto &[key, ctx] : sch.ctxs) {
                // A mid-slice save serializes the running context as
                // Runnable at the front of the run queue: the restored
                // image resumes it from its current PC.
                State state = ctx.get() == sch.current ? State::Runnable
                                                       : ctx->state;
                u64 retired = ctx->interp ? ctx->interp->_retired : 0;
                io(ar, std::as_const(*ctx), state, retired);
            }
        } else {
            for (u64 i = 0; i < nCtx; ++i) {
                auto ctx = std::make_unique<sched::ExecContext>();
                u64 retired = 0;
                io(ar, *ctx, ctx->state, retired);
                Process *proc = kern.findProcess(ctx->pid);
                if (!proc)
                    throw ParseError("context references unknown pid");
                ctx->interp = std::make_unique<isa::Interpreter>(
                    *proc, kern.traceSink);
                isa::installDefaultSyscallHook(*ctx->interp, kern);
                ctx->interp->_retired = retired;
                std::pair<u64, u64> key{ctx->pid, ctx->tid};
                if (!sch.ctxs.emplace(key, std::move(ctx)).second)
                    throw ParseError("duplicate scheduler context");
            }
        }
        // The run queue, with the running context (if any) at its
        // front.
        using Ptr = std::conditional_t<Ar::saving,
                                       const sched::ExecContext *,
                                       sched::ExecContext *>;
        std::vector<Ptr> runq;
        if constexpr (Ar::saving) {
            if (sch.current)
                runq.push_back(sch.current);
            runq.insert(runq.end(), sch.runq.begin(), sch.runq.end());
        }
        seq(ar, runq, [&](auto &c) { queued(ar, sch, c, "run queue"); });
        if constexpr (Ar::loading)
            sch.runq.assign(runq.begin(), runq.end());
        seq(ar, sch.blocked,
            [&](auto &c) { queued(ar, sch, c, "blocked list"); });
        // lastRan may point at an already-erased hosted context:
        // compare addresses only, never dereference.
        bool lastRanKnown = false;
        std::pair<u64, u64> lastKey{0, 0};
        if constexpr (Ar::saving) {
            for (const auto &[key, ctx] : sch.ctxs) {
                if (sch.lastRan && ctx.get() == sch.lastRan) {
                    lastRanKnown = true;
                    lastKey = key;
                }
            }
        }
        ar.flag(lastRanKnown);
        ar.u64(lastKey.first, lastKey.second);
        if constexpr (Ar::loading) {
            if (lastRanKnown)
                sch.lastRan = findContext(sch, lastKey.first,
                                          lastKey.second, "lastRan");
        }
    }
    /// @}

    /** Magic and version: checked before restore touches the kernel. */
    template <class Ar>
    static void
    header(Ar &ar)
    {
        char magic[sizeof(imageMagic)];
        std::memcpy(magic, imageMagic, sizeof(magic));
        ar.bytes(magic, sizeof(magic));
        if (std::memcmp(magic, imageMagic, sizeof(magic)) != 0)
            throw ParseError("bad magic");
        u32 version = imageVersion;
        ar.u32(version);
        if (version != imageVersion)
            throw ParseError("unsupported image version");
    }

    /** The image after its header, section by section, for both
     *  directions.  Save passes a const kernel. */
    template <class Ar, class K>
    static void
    sections(Ar &ar, K &kern, Tables &t)
    {
        ar.tag(SEC_CONFIG, "config");
        const u32 layout[] = {numSysNums,      obs::Metrics::maxOps,
                              numTlbCounters,  numCapFaults,
                              numDeriveSources, numSignals,
                              numCapRegs,      numFaultPoints};
        for (u32 expected : layout) {
            u32 v = expected;
            ar.u32(v);
            if (v != expected)
                throw ParseError("layout-constant mismatch (image "
                                 "from an incompatible build)");
        }
        u64 page = pageSize;
        ar.u64(page);
        if (page != pageSize)
            throw ParseError("page-size mismatch");
        io(ar, t.cfg);

        ar.tag(SEC_FRAMES, "frames");
        io(ar, kern.phys);
        // Smallest records: a frame's bytes and tag count; a channel's
        // buffer count, flags and wait tokens; a vnode's kind, name and
        // data lengths, child count and two channel ids; an open
        // file's fields.
        objects(
            ar, t.frames, pageSize + 8,
            [&] { return mintFrame(kern.phys); },
            [&](auto &f) { io(ar, f); });

        ar.tag(SEC_SWAP, "swap");
        io(ar, kern.swap);

        ar.tag(SEC_VFS, "vfs");
        objects(
            ar, t.chans, 8 + 2 + 2 * 8,
            [] { return std::make_shared<ByteChannel>(); },
            [&](auto &ch) { io(ar, ch); });
        objects(
            ar, t.nodes, 1 + 3 * 8 + 2 * 4,
            [] { return std::make_shared<VNode>(); },
            [&](auto &n) { io(ar, n, t); }, true);
        ref(ar, kern.fs.root, t.nodes, "corrupt vnode id", false);
        if (kern.fs.root->kind != NodeKind::Directory)
            throw ParseError("vfs root is not a directory");
        objects(
            ar, t.files, 4 + 8 + 4,
            [] { return std::make_shared<OpenFile>(); },
            [&](auto &of) { io(ar, of, t); });
        ar.u64(t.maxWaitToken);

        ar.tag(SEC_PROCS, "processes");
        u64 nProcs = kern.procs.size();
        ar.count(nProcs);
        if constexpr (Ar::saving) {
            for (const auto &[pid, p] : kern.procs) {
                Identity id{pid, p->_ppid, p->_abi, p->_name,
                            p->_cost._features};
                io(ar, id);
                io(ar, std::as_const(*p->_as), t);
                io(ar, std::as_const(*p), t);
            }
        } else {
            for (u64 i = 0; i < nProcs; ++i) {
                Identity id;
                io(ar, id);
                // The record overwrites the constructor's principal,
                // format and root.
                auto as = std::make_unique<AddressSpace>(kern.phys,
                                                         kern.swap, 0);
                io(ar, *as, t);
                auto proc = std::make_unique<Process>(
                    kern, id.pid, id.ppid, id.abi, id.name, std::move(as),
                    id.features);
                io(ar, *proc, t);
                if (!kern.procs.emplace(id.pid, std::move(proc)).second)
                    throw ParseError("duplicate pid");
            }
        }

        ar.tag(SEC_KERNEL, "kernel");
        counters(ar, kern.pressure);
        counters(ar, kern.fdStats);
        counters(ar, kern.revStats);
        counters(ar, kern.hardStats);
        ar.u64(kern.switches, kern.quiescentSeq, kern.nextEpochId,
               kern.nextPid, kern.nextPrincipal, kern.nextOtype);
        ar.u32(kern.nextShmId);
        entries(ar, kern.shmSegments, [&](auto &id, auto &seg) {
            ar.u32(id);
            ar.u64(seg.size);
            seq(ar, seg.frames, [&](auto &f) {
                ref(ar, f, t.frames, "corrupt shm frame id", false);
            });
        });
        entries(ar, kern.kqueues, [&](auto &pid, auto &events) {
            ar.u64(pid);
            seq(ar, events, [&](auto &e) { io(ar, e); });
        });
        seq(ar, kern.attached, [&](auto &a) { ar.u64(a.first, a.second); });
        entries(ar, kern.revEpochs, [&](auto &pid, auto &ep) {
            ar.u64(pid);
            io(ar, ep);
        });
        entries(ar, kern.eventCounts,
                [&](auto &pid, auto &count) { ar.u64(pid, count); });

        ar.tag(SEC_INJECT, "injector");
        for (auto &arm : kern.injector.arms)
            io(ar, arm);

        ar.tag(SEC_METRICS, "metrics");
        bool hasMetrics = kern.mx != nullptr;
        ar.flag(hasMetrics);
        t.hadMetrics = hasMetrics;
        if (hasMetrics) {
            if constexpr (Ar::saving) {
                io(ar, std::as_const(*kern.mx));
            } else if (kern.mx) {
                io(ar, *kern.mx);
            } else {
                // No registry attached here: parse (validating the
                // section) into a scratch registry and discard.
                auto scratch = std::make_unique<obs::Metrics>();
                io(ar, *scratch);
            }
        }

        ar.tag(SEC_SCHED, "scheduler");
        bool hasSched = t.sched != nullptr;
        ar.flag(hasSched);
        if (hasSched) {
            if constexpr (Ar::saving) {
                io(ar, *t.sched, kern);
            } else {
                auto sch = std::make_unique<sched::Scheduler>(kern);
                io(ar, *sch, kern);
                kern.installScheduler(std::move(sch));
            }
        }

        ar.tag(SEC_END, "end");
    }

    /** Mint a frame on the live counter without consulting capacity or
     *  the injector: the image's frames were already admitted once. */
    static FrameRef
    mintFrame(const PhysMem &phys)
    {
        auto counter = phys.live;
        ++*counter;
        return FrameRef(new Frame(), [counter](Frame *f) {
            --*counter;
            delete f;
        });
    }

    // ------------------------------------------------------------------
    // save
    // ------------------------------------------------------------------

    static std::vector<u8>
    saveImpl(Kernel &kern, std::string *error)
    {
        Tables t;
        if (kern.schedIface) {
            auto *sch = dynamic_cast<sched::Scheduler *>(kern.schedIface);
            if (!sch)
                return refuse(error, "snapshot: installed scheduler is "
                                     "not a sched::Scheduler");
            for (const auto &h : sch->hosted) {
                if (h->state != sched::ExecContext::State::Done)
                    return refuse(error,
                                  "snapshot: a hosted (host-function) "
                                  "context is live and cannot be captured");
            }
            if (sch->current && sch->current->isHost())
                return refuse(error, "snapshot: a hosted context is "
                                     "running and cannot be captured");
            t.sched = sch;
        }
        for (const auto &[pid, p] : kern.procs) {
            if (!p->liveSigFrames.empty())
                return refuse(error, "snapshot: process " +
                                         std::to_string(pid) +
                                         " is inside a signal handler "
                                         "(live signal frames)");
            for (const auto &[start, m] : p->_as->mappings) {
                (void)start;
                if (m.backing || m.backingWriter)
                    return refuse(error,
                                  "snapshot: process " +
                                      std::to_string(pid) +
                                      " has a file-backed mapping (host "
                                      "callback) at " + m.name);
            }
        }

        // ---- census: number the shared objects (deterministic order) --
        for (const auto &[pid, p] : kern.procs) {
            (void)pid;
            for (const auto &[va, pte] : p->_as->pages) {
                (void)va;
                t.frames.note(pte.frame);
            }
        }
        for (const auto &[id, seg] : kern.shmSegments) {
            (void)id;
            for (const FrameRef &f : seg.frames)
                t.frames.note(f);
        }
        if (*kern.phys.live != t.frames.size())
            return refuse(error,
                          "snapshot: " +
                              std::to_string(*kern.phys.live -
                                             t.frames.size()) +
                              " live frame(s) not reachable from page "
                              "tables or shm segments");
        std::function<void(const VNodeRef &)> noteNode =
            [&](const VNodeRef &n) {
                if (!t.nodes.note(n))
                    return;
                t.chans.note(n->readCh);
                t.chans.note(n->writeCh);
                for (const auto &[name, child] : n->children) {
                    (void)name;
                    noteNode(child);
                }
            };
        noteNode(kern.fs.root);
        for (const auto &[pid, p] : kern.procs) {
            (void)pid;
            for (const OpenFileRef &of : p->fds) {
                if (!of)
                    continue;
                noteNode(of->node);
                t.files.note(of);
            }
        }
        for (u64 i = 1; i <= t.chans.size(); ++i) {
            const ByteChannel &ch = *t.chans.obj[i];
            t.maxWaitToken =
                std::max({t.maxWaitToken, ch.readWait, ch.writeWait});
        }
        t.cfg = kern.cfg;

        Writer ar;
        header(ar);
        sections(ar, std::as_const(kern), t);
        if (kern.mx)
            kern.mx->recordSnapshot(ar.size());
        return ar.take();
    }

    // ------------------------------------------------------------------
    // restore
    // ------------------------------------------------------------------

    static bool
    restoreImpl(Kernel &kern, const std::vector<u8> &image,
                std::string *error)
    {
        try {
            Reader ar(image);
            header(ar);
            wipe(kern);
            Tables t;
            sections(ar, kern, t);

            // Commit: config applies only once the whole image parsed.
            kern.cfg = t.cfg;
            Vfs::reserveWaitIds(t.maxWaitToken + 1);
            if (kern.mx) {
                // An image without a registry restores none: the
                // registry starts over on the restored counters.
                if (!t.hadMetrics)
                    kern.mx->reset();
                // Re-wire every restored process's fresh MemAccess into
                // the registry's TLB counter blocks.
                kern.setMetrics(kern.mx);
            }
            kern.kernelReady = true;
            if (kern.mx)
                kern.mx->recordRestore(true);
            return true;
        } catch (const ParseError &e) {
            // Every failure, a refused header included, leaves the
            // kernel empty: never half-restored, never the old state.
            resetToEmpty(kern);
            if (kern.mx)
                kern.mx->reset();
            if (error)
                *error = "restore failed: " + e.msg;
            if (kern.mx)
                kern.mx->recordRestore(false);
            return false;
        }
    }

    /** Tear down all restorable state to the kernel's empty baseline,
     *  leaving environment (trace sink, metrics pointer, check hook,
     *  injector tap, reclaim hook) wired. */
    static void
    wipe(Kernel &kern)
    {
        // Suppress FD wake edges: closeAllFds below fires channel
        // edges, and the scheduler is about to be destroyed.
        kern.kernelReady = false;
        for (auto &[pid, p] : kern.procs) {
            (void)pid;
            p->closeAllFds();
        }
        // The scheduler's contexts hold Process references: destroy
        // them before the processes.
        kern.installScheduler(nullptr);
        kern.resetToBaseline();
        kern.swap.slots.clear();
    }

    /** Restore-abort landing pad: the baseline, with the environment
     *  preserved.  Unlike a panic reset, a failed restore keeps no
     *  hardening history, and the pools take their capacity, swap
     *  policy and budget from the config again. */
    static void
    resetToEmpty(Kernel &kern)
    {
        wipe(kern);
        kern.hardStats = {};
        kern.panicInProgress = false;
        kern.phys.capacity = kern.cfg.frameCapacity;
        kern.swap._policy = kern.cfg.swapPolicy;
        kern.swap.budget = kern.cfg.swapSlotBudget;
        kern.swap.nextSlot = 0;
        kern.kernelReady = true;
    }

    static void
    setReady(Kernel &kern, bool ready)
    {
        kern.kernelReady = ready;
    }
};

std::vector<u8>
save(Kernel &kern, std::string *error)
{
    return Access::saveImpl(kern, error);
}

bool
restore(Kernel &kern, const std::vector<u8> &image, std::string *error)
{
    return Access::restoreImpl(kern, image, error);
}

void
setKernelReadyForTest(Kernel &kern, bool ready)
{
    Access::setReady(kern, ready);
}

void
installPanicSnapshotHook(Kernel &kern)
{
    kern.setPanicSnapshotHook([](Kernel &k) {
        // save() refuses unsnapshottable state by returning an empty
        // image with an error string — exactly the degraded-capture
        // behavior the panic path wants, so the error is dropped.
        std::string err;
        return save(k, &err);
    });
}

} // namespace cheri::snap
