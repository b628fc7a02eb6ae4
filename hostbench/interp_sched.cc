/**
 * @file
 * interp-sched: interpreted guests under the scheduler's time slicing,
 * checkpointed after every round.
 *
 * A pass boots one kernel with five seed-generated ISA guests:
 *
 *  - a mips64 ld/sd copy/checksum kernel and a CheriABI cld/csd copy
 *    kernel, each over a 256 KiB source and destination (the two
 *    streams collide in the direct-mapped 64-entry dTLB, so nearly
 *    every data access misses: measured, not hidden);
 *  - a CheriABI clc pointer chase around a seed-derived cyclic
 *    permutation of nodes, one per cache line, spanning 1 MiB: four
 *    times the dTLB reach (64 x 4 KiB) and the 256 KiB L2;
 *  - a mips64 producer and consumer moving full 64 KiB chunks through
 *    a blocking pipe, the consumer checksumming every chunk.
 *
 * A pass runs in rounds (the items).  A round readies each guest for
 * kRoundSteps more instructions and drains the scheduler; then
 * snap::save checkpoints the live kernel and snap::restore rebuilds it
 * in a fresh kernel, which runs the next round.  When every guest has
 * halted, its registers and memory are checked against values
 * computed on the host: a run restored from checkpoints must end with
 * the results of an uninterrupted one.  A pass boots inside its first
 * round (users pay for boots too).  A cycle is five passes with
 * different seed-derived data, 105 distinct rounds.
 */

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "isa/assembler.h"
#include "layers.h"
#include "os/sched/sched.h"
#include "os/snapshot/snapshot.h"

namespace hostbench
{

using namespace cheri;

namespace
{

// Each guest retires about 1.8 M instructions per pass, so all five
// halt after about 20 rounds.
constexpr u64 kCopyWords = 32 * 1024;
constexpr u64 kCopyReps = 8;
/** One node per 64-byte line: 16 Ki nodes span 1 MiB (256 pages)
 *  while keeping the capabilities a snapshot stores to 16 Ki. */
constexpr u64 kChaseNodes = 16 * 1024;
constexpr u64 kNodeBytes = 64;
constexpr u64 kChaseHops = 367 * 1024;
constexpr u64 kChunk = ByteChannel::capacity;
constexpr u64 kPipeChunks = 45;
/** Instructions each guest may retire per round. */
constexpr u64 kRoundSteps = 90 * 1000;
/** Passes per cycle, each with its own seed-derived data: 105 rounds. */
constexpr u64 kPasses = 5;
/** The guests use no stack; a small one keeps the image small. */
constexpr u64 kStackBytes = 64 * 1024;

enum GuestId
{
    CopyMips,
    CopyCheri,
    Chase,
    Producer,
    Consumer,
    numGuests,
};

const char *const guestNames[numGuests] = {
    "copy-mips64", "copy-cheriabi", "chase-cheriabi", "pipe-producer",
    "pipe-consumer"};

/** What the host expects each guest to end with. */
struct Expected
{
    /** Each guest's checksum register (see checksumReg). */
    std::array<u64, numGuests> checksum{};
    /** Source of the copy kernels (the destination must equal it). */
    std::vector<u64> copySrc;
};

isa::Assembler
copyProgram(bool cheri, u64 src, u64 dst)
{
    isa::Assembler a;
    a.li(6, static_cast<s64>(kCopyReps)).label("outer");
    if (cheri) {
        // c7/c8 hold the source and destination capabilities.
        a.cmove(1, 7).cmove(2, 8).li(3, static_cast<s64>(kCopyWords));
        a.label("loop")
            .cld(4, 1, 0)
            .add(5, 5, 4)
            .csd(4, 2, 0)
            .cincoffsetimm(1, 1, 8)
            .cincoffsetimm(2, 2, 8);
    } else {
        a.li(1, static_cast<s64>(src))
            .li(2, static_cast<s64>(dst))
            .li(3, static_cast<s64>(kCopyWords));
        a.label("loop")
            .ld(4, 1, 0)
            .add(5, 5, 4)
            .sd(4, 2, 0)
            .addi(1, 1, 8)
            .addi(2, 2, 8);
    }
    a.addi(3, 3, -1)
        .bne(3, 0, "loop")
        .addi(6, 6, -1)
        .bne(6, 0, "outer")
        .halt();
    return a;
}

isa::Assembler
chaseProgram()
{
    isa::Assembler a;
    a.li(3, static_cast<s64>(kChaseHops))
        .label("loop")
        .clc(1, 1, 0)
        .cgetaddr(4, 1)
        .add(5, 5, 4)
        .addi(3, 3, -1)
        .bne(3, 0, "loop")
        .halt();
    return a;
}

/** Producer: write full chunks from x8 until kPipeChunks are out.  A
 *  blocked write restarts, so x2 (error) is set only on a real error,
 *  which retries. */
isa::Assembler
producerProgram(int fd)
{
    isa::Assembler a;
    a.li(9, static_cast<s64>(kPipeChunks * kChunk))
        .label("loop")
        .li(4, fd)
        .move(5, 8)
        .li(6, static_cast<s64>(kChunk))
        .syscall(static_cast<s64>(SysNum::Write))
        .bne(2, 0, "loop")
        .sub(9, 9, 3)
        .bne(9, 0, "loop")
        .halt();
    return a;
}

/** Consumer: read chunks into x8, add every word to x13, count bytes
 *  in x10.  (x4-x6 carry the read's arguments.) */
isa::Assembler
consumerProgram(int fd)
{
    isa::Assembler a;
    a.li(9, static_cast<s64>(kPipeChunks * kChunk))
        .label("loop")
        .li(4, fd)
        .move(5, 8)
        .li(6, static_cast<s64>(kChunk))
        .syscall(static_cast<s64>(SysNum::Read))
        .bne(2, 0, "loop")
        .sub(9, 9, 3)
        .add(10, 10, 3)
        .move(11, 8)
        .srl(12, 3, 3)
        .beq(12, 0, "next")
        .label("sum")
        .ld(14, 11, 0)
        .add(13, 13, 14)
        .addi(11, 11, 8)
        .addi(12, 12, -1)
        .bne(12, 0, "sum")
        .label("next")
        .bne(9, 0, "loop")
        .halt();
    return a;
}

/** The register holding each guest's checksum. */
constexpr unsigned checksumReg[numGuests] = {5, 5, 5, 9, 13};

/** Observers of a traced pass, attached to every kernel of the pass. */
struct Observers
{
    obs::Metrics mx;
    DerivationCounter derivs;
    DispatchGaps gaps;
    std::vector<double> sliceUs;
    bool haveSlice = false;
    Clock::time_point lastSlice;

    void
    attach(Kernel &kern)
    {
        kern.setMetrics(&mx);
        kern.setTrace(&derivs);
        gaps.install(kern);
    }

    /** Time slices and dispatch gaps within one round only: the gap
     *  across a checkpoint is not the scheduler's. */
    void
    startRound(sched::Scheduler &s)
    {
        gaps.restart();
        haveSlice = false;
        s.setSliceHook([this](Process &) {
            Clock::time_point now = Clock::now();
            if (haveSlice)
                sliceUs.push_back(secondsBetween(lastSlice, now) * 1e6);
            lastSlice = now;
            haveSlice = true;
        });
    }
};

struct Pass
{
    std::unique_ptr<Kernel> kern;
    /** Null in an untraced pass. */
    std::unique_ptr<Observers> obs;
    std::array<u64, numGuests> pid{};
    std::array<bool, numGuests> halted{};
    Expected want;
    u64 copyData[2] = {0, 0};
    u64 rounds = 0;
};

KernelConfig
passConfig()
{
    KernelConfig cfg;
    cfg.stackSize = kStackBytes;
    return cfg;
}

Process &
makeGuest(Kernel &kern, Abi abi, const char *name, u64 dataBytes,
          u64 &code, u64 &data)
{
    SelfObject prog;
    prog.name = name;
    Process *proc = kern.spawn(abi, name);
    if (!proc || kern.execve(*proc, prog, {name}, {}) != E_OK)
        throw std::runtime_error(std::string("execve failed: ") + name);
    code = proc->as().map(0, pageSize, PROT_READ | PROT_WRITE | PROT_EXEC,
                          MappingKind::Text);
    data = proc->as().map(0, dataBytes, PROT_READ | PROT_WRITE,
                          MappingKind::Data);
    if (!code || !data)
        throw std::runtime_error(std::string("map failed: ") + name);
    return *proc;
}

sched::ExecContext &
install(Kernel &kern, Process &proc, const isa::Assembler &prog, u64 code)
{
    prog.writeTo(proc.as(), code); // throws if it does not fit
    sched::ExecContext &cx = sched::schedulerFor(kern).context(proc);
    if (proc.abi() == Abi::CheriAbi) {
        cx.interp->setEntry(proc.as()
                                .capForRange(code, pageSize,
                                             PROT_READ | PROT_EXEC, false)
                                .setAddress(code));
    } else {
        cx.interp->setEntry(Capability::fromAddress(code));
    }
    cx.stepLimit = kRoundSteps;
    return cx;
}

void
writeOrThrow(Process &p, u64 va, const void *buf, u64 len)
{
    if (p.as().writeBytes(va, buf, len))
        throw std::runtime_error("guest memory write failed");
}

/** Boot pass @p index of the run seeded @p seed. */
Pass
boot(Run &run, u64 seed, u64 index, bool traced)
{
    Tracer::Scope span(run.trace, "os.boot");
    Pass p;
    u64 rng = mix64(seed * 0x10001 + index);
    auto next = [&rng] { return rng = mix64(rng); };

    p.kern = std::make_unique<Kernel>(passConfig());
    Kernel &kern = *p.kern;
    if (traced) {
        p.obs = std::make_unique<Observers>();
        p.obs->attach(kern);
    }

    // The two copy kernels share one seed-derived source.
    p.want.copySrc.resize(kCopyWords);
    for (u64 &w : p.want.copySrc)
        w = next();
    u64 srcSum = std::accumulate(p.want.copySrc.begin(),
                                 p.want.copySrc.end(), u64{0});
    const u64 copyBytes = kCopyWords * 8;
    for (int g : {CopyMips, CopyCheri}) {
        bool cheri = g == CopyCheri;
        u64 code = 0, data = 0;
        Process &proc =
            makeGuest(kern, cheri ? Abi::CheriAbi : Abi::Mips64,
                      guestNames[g], 2 * copyBytes, code, data);
        writeOrThrow(proc, data, p.want.copySrc.data(), copyBytes);
        u64 dst = data + copyBytes;
        sched::ExecContext &cx =
            install(kern, proc, copyProgram(cheri, data, dst), code);
        if (cheri) {
            auto &c = cx.interp->regs().c;
            c[7] = proc.as()
                       .capForRange(data, copyBytes,
                                    PROT_READ | PROT_WRITE, false)
                       .setAddress(data);
            c[8] = proc.as()
                       .capForRange(dst, copyBytes, PROT_READ | PROT_WRITE,
                                    false)
                       .setAddress(dst);
        }
        p.pid[g] = proc.pid();
        p.copyData[cheri] = dst;
        p.want.checksum[g] = srcSum * kCopyReps;
    }

    // Pointer chase: a single cycle through every node (Sattolo).
    {
        std::vector<u32> perm(kChaseNodes);
        std::iota(perm.begin(), perm.end(), 0u);
        for (u64 i = kChaseNodes - 1; i > 0; --i)
            std::swap(perm[i], perm[next() % i]);
        u64 code = 0, data = 0;
        Process &proc = makeGuest(kern, Abi::CheriAbi, guestNames[Chase],
                                  kChaseNodes * kNodeBytes, code, data);
        Capability all = proc.as().capForRange(
            data, kChaseNodes * kNodeBytes, PROT_READ | PROT_WRITE, false);
        for (u64 i = 0; i < kChaseNodes; ++i) {
            if (proc.as().writeCap(data + i * kNodeBytes,
                                   all.setAddress(data + perm[i] *
                                                             kNodeBytes)))
                throw std::runtime_error("chase node write failed");
        }
        u64 start = next() % kChaseNodes;
        sched::ExecContext &cx = install(kern, proc, chaseProgram(), code);
        cx.interp->regs().c[1] = all.setAddress(data + start * kNodeBytes);
        u64 sum = 0;
        for (u64 i = 0, cur = start; i < kChaseHops; ++i) {
            cur = perm[cur];
            sum += data + cur * kNodeBytes;
        }
        p.pid[Chase] = proc.pid();
        p.want.checksum[Chase] = sum;
    }

    // Blocking pipe pair: every write fills the pipe and every read
    // drains it, so each chunk is a hand-off through the scheduler.
    {
        u64 pcode = 0, pdata = 0, ccode = 0, cdata = 0;
        Process &prod = makeGuest(kern, Abi::Mips64, guestNames[Producer],
                                  kChunk, pcode, pdata);
        Process &cons = makeGuest(kern, Abi::Mips64, guestNames[Consumer],
                                  kChunk, ccode, cdata);
        std::vector<u64> buf(kChunk / 8);
        for (u64 &w : buf)
            w = next();
        writeOrThrow(prod, pdata, buf.data(), kChunk);
        auto [rd, wr] = Vfs::makePipe();
        auto rof = std::make_shared<OpenFile>();
        rof->node = rd;
        rof->flags = O_RDONLY;
        auto wof = std::make_shared<OpenFile>();
        wof->node = wr;
        wof->flags = O_WRONLY;
        int wfd = prod.allocFd(wof);
        int rfd = cons.allocFd(rof);
        install(kern, prod, producerProgram(wfd), pcode)
            .interp->regs()
            .x[8] = pdata;
        install(kern, cons, consumerProgram(rfd), ccode)
            .interp->regs()
            .x[8] = cdata;
        p.pid[Producer] = prod.pid();
        p.pid[Consumer] = cons.pid();
        p.want.checksum[Producer] = 0; // x9 counts down to zero
        p.want.checksum[Consumer] =
            std::accumulate(buf.begin(), buf.end(), u64{0}) * kPipeChunks;
    }
    return p;
}

sched::ExecContext &
contextOf(Pass &p, int g)
{
    Process *proc = p.kern->findProcess(p.pid[g]);
    if (!proc)
        throw std::runtime_error("guest process lost");
    return sched::schedulerFor(*p.kern).context(*proc);
}

/** Every simulated counter of a finished pass. */
std::vector<u64>
passCounters(Pass &p)
{
    std::vector<u64> out{p.rounds};
    for (int g = 0; g < numGuests; ++g) {
        sched::ExecContext &cx = contextOf(p, g);
        CostModel &c = p.kern->findProcess(p.pid[g])->cost();
        out.insert(out.end(),
                   {c.instructions(), c.cycles(), c.cache().l1iMisses(),
                    c.l1dMisses(), c.l2Misses(), c.itlbAccesses(),
                    c.itlbMisses(), c.dtlbAccesses(), c.dtlbMisses(),
                    cx.retired(), cx.slices,
                    cx.interp->regs().x[checksumReg[g]]});
    }
    const SchedStats &s = sched::schedulerFor(*p.kern).stats();
    out.insert(out.end(),
               {s.contextSwitches, s.preemptions, s.slices, s.blocksFd,
                s.wakes, s.maxRunQueueDepth, s.stepsExecuted,
                p.kern->fdIoStats().blocks, p.kern->fdIoStats().wakes,
                p.kern->fdIoStats().partialWrites});
    return out;
}

/** Check a finished pass against the host's expectations. */
std::string
verify(Pass &p)
{
    for (int g = 0; g < numGuests; ++g) {
        u64 got = contextOf(p, g).interp->regs().x[checksumReg[g]];
        if (got != p.want.checksum[g])
            return std::string(guestNames[g]) + " checksum mismatch";
    }
    if (contextOf(p, Consumer).interp->regs().x[10] != kPipeChunks * kChunk)
        return "pipe byte count mismatch";
    for (int g : {CopyMips, CopyCheri}) {
        std::vector<u64> dst(kCopyWords);
        Process &proc = *p.kern->findProcess(p.pid[g]);
        if (proc.as().readBytes(p.copyData[g == CopyCheri], dst.data(),
                                kCopyWords * 8) ||
            dst != p.want.copySrc)
            return std::string(guestNames[g]) + " destination mismatch";
    }
    return "";
}

/** Per-layer sums over traced passes. */
struct LayerSums
{
    double rounds = 0;
    u64 steps = 0;
    u64 derivations = 0;
    u64 insns = 0;
    u64 cycles = 0;
    u64 l1iMisses = 0;
    u64 l1dMisses = 0;
    u64 l2Misses = 0;
    u64 switches = 0;
    u64 preemptions = 0;
    u64 fdBlocks = 0;
    double imageMb = 0;
    MetricsTotals mx;
    std::vector<double> sliceUs;
    std::vector<double> gapUs;
};

void
accumulate(Pass &p, LayerSums &sums)
{
    if (!p.obs)
        return;
    sums.rounds += static_cast<double>(p.rounds);
    sums.derivations += p.obs->derivs.n;
    for (int g = 0; g < numGuests; ++g) {
        CostModel &c = p.kern->findProcess(p.pid[g])->cost();
        sums.insns += c.instructions();
        sums.cycles += c.cycles();
        sums.l1iMisses += c.cache().l1iMisses();
        sums.l1dMisses += c.l1dMisses();
        sums.l2Misses += c.l2Misses();
    }
    const SchedStats &s = sched::schedulerFor(*p.kern).stats();
    sums.steps += s.stepsExecuted;
    sums.switches += s.contextSwitches;
    sums.preemptions += s.preemptions;
    sums.fdBlocks += s.blocksFd;
    sums.mx.add(p.obs->mx);
    sums.sliceUs.insert(sums.sliceUs.end(), p.obs->sliceUs.begin(),
                        p.obs->sliceUs.end());
    sums.gapUs.insert(sums.gapUs.end(), p.obs->gaps.gapsUs.begin(),
                      p.obs->gaps.gapsUs.end());
}

/**
 * One round: ready every guest that stopped at its step limit, drain
 * the scheduler, then checkpoint and continue in a fresh kernel.
 * Returns the instructions retired; sets @p err on a guest fault.
 */
u64
runRound(Run &run, Pass &p, LayerSums &sums, std::string &err)
{
    sched::Scheduler &s = sched::schedulerFor(*p.kern);
    for (int g = 0; g < numGuests; ++g) {
        sched::ExecContext &cx = contextOf(p, g);
        if (!p.halted[g] && cx.state == sched::ExecContext::State::Done)
            s.ready(cx);
    }
    if (p.obs)
        p.obs->startRound(s);
    u64 before = s.stats().stepsExecuted;
    {
        Tracer::Scope span(run.trace, "isa.run");
        p.kern->runUntilIdle();
    }
    u64 steps = s.stats().stepsExecuted - before;
    s.setSliceHook(nullptr);
    ++p.rounds;
    for (int g = 0; g < numGuests; ++g) {
        sched::ExecContext &cx = contextOf(p, g);
        if (cx.state != sched::ExecContext::State::Done)
            continue;
        if (cx.last.status == isa::InterpResult::Status::Halted)
            p.halted[g] = true;
        else if (cx.last.status != isa::InterpResult::Status::StepLimit)
            err = std::string(guestNames[g]) + " faulted";
    }
    if (steps == 0 && err.empty())
        err = "no guest made progress";

    std::string serr;
    std::vector<u8> image;
    {
        Tracer::Scope span(run.trace, "snapshot.save");
        image = snap::save(*p.kern, &serr);
    }
    if (image.empty())
        throw std::runtime_error("snapshot save failed: " + serr);
    auto fresh = std::make_unique<Kernel>(passConfig());
    if (p.obs)
        p.obs->attach(*fresh);
    {
        Tracer::Scope span(run.trace, "snapshot.restore");
        if (!snap::restore(*fresh, image, &serr))
            throw std::runtime_error("snapshot restore failed: " + serr);
    }
    {
        Tracer::Scope span(run.trace, "os.teardown");
        p.kern = std::move(fresh);
    }
    if (p.obs)
        sums.imageMb += static_cast<double>(image.size()) / (1 << 20);
    return steps;
}

bool
allHalted(const Pass &p)
{
    return std::all_of(p.halted.begin(), p.halted.end(),
                       [](bool h) { return h; });
}

} // namespace

void
runInterpSched(Run &run)
{
    const u64 seed = run.opts.seed;
    // Set-up boots every pass of the cycle: it derives the guests'
    // data and the host's expected results.  Each pass boots again
    // inside its first round, so every repetition of a round does the
    // same work.
    auto setup = [&] {
        for (u64 p = 0; p < kPasses; ++p)
            boot(run, seed, p, false);
    };
    run.timeSetup(setup);

    LayerSums sums;
    startLoop(run);
    u64 c = 0;
    do {
        // A traced run alternates traced and untraced cycles; the
        // untraced ones measure the tracing overhead.
        bool traced = run.opts.trace && c % 2 == 0;
        run.trace.setOn(traced);
        u64 key = 0;
        for (u64 p = 0; p < kPasses; ++p) {
            Pass pass;
            bool done = false;
            while (!done) {
                u64 index = run.attempted;
                run.trace.setItem(index);
                std::string err;
                Clock::time_point t0 = Clock::now();
                u64 steps = 0;
                {
                    Tracer::Scope itemSpan(run.trace, "item");
                    if (!pass.kern)
                        pass = boot(run, seed, p, traced);
                    steps = runRound(run, pass, sums, err);
                    done = allHalted(pass) || !err.empty();
                    if (done && err.empty())
                        err = verify(pass);
                }
                double ms = secondsBetween(t0, Clock::now()) * 1e3;
                if (run.opts.plantFailure && index == 0)
                    err = "planted failure";
                if (!err.empty())
                    run.fail(index, err);
                run.item(key++, ms, err.empty(), steps, traced);
            }
            if (c == 0)
                run.fold(passCounters(pass), pass.rounds);
            accumulate(pass, sums);
        }
        ++c;
    } while (run.nextCycle(setup));

    if (run.opts.trace) {
        auto spans = run.trace.totals();
        const Tracer::Total &save = spans["snapshot.save"];
        const Tracer::Total &restore = spans["snapshot.restore"];
        run.layer["os.boot_ms"] = spans["os.boot"].meanMs();
        run.layer["isa.steps"] =
            ratio(static_cast<double>(sums.steps), sums.rounds);
        run.layer["isa.host_ns_per_step"] =
            ratio(spans["isa.run"].totalMs * 1e6,
                  static_cast<double>(sums.steps));
        run.layer["cap.derivations"] =
            ratio(static_cast<double>(sums.derivations), sums.rounds);
        run.layer["machine.l1d_mpki"] =
            ratio(static_cast<double>(sums.l1dMisses) * 1e3,
                  static_cast<double>(sums.insns));
        run.layer["machine.l2_miss_ratio"] =
            ratio(static_cast<double>(sums.l2Misses),
                  static_cast<double>(sums.l1iMisses + sums.l1dMisses));
        run.layer["machine.sim_cycles"] =
            ratio(static_cast<double>(sums.cycles), sums.rounds);
        putMetricsTotals(run, sums.mx, sums.rounds);
        run.layer["sched.slice_us_p50"] = quantile(sums.sliceUs, 0.5);
        run.layer["sched.context_switches"] =
            ratio(static_cast<double>(sums.switches), sums.rounds);
        run.layer["sched.preemptions"] =
            ratio(static_cast<double>(sums.preemptions), sums.rounds);
        run.layer["sched.fd_blocks"] =
            ratio(static_cast<double>(sums.fdBlocks), sums.rounds);
        run.layer["os.dispatch_gap_us_p50"] = quantile(sums.gapUs, 0.5);
        run.layer["snapshot.save_ms"] = save.meanMs();
        run.layer["snapshot.restore_ms"] = restore.meanMs();
        run.layer["snapshot.image_mb"] = ratio(sums.imageMb, sums.rounds);
        run.layer["snapshot.share"] = ratio(save.totalMs + restore.totalMs,
                                            spans["item"].totalMs);
    }
}

} // namespace hostbench
