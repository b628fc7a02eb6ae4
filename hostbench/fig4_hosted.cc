/**
 * @file
 * fig4-hosted: the paper's headline result as users run it.
 *
 * The mix is bench/fig4_workloads's: for each of five seed-derived
 * ASLR slides, the 12 Figure 4 kernels under mips64 and CheriABI, then
 * initdb once (it takes no slide) under mips64, CheriABI and ASan: a
 * cycle of 123 distinct items.  Each kernel item boots a fresh kernel
 * exactly as
 * apps::runWorkload does (users pay that on every run).  The first
 * time a distinct item runs, runWorkload runs it too, untimed, and the
 * two must agree on instructions, cycles and L2 misses; every later
 * repetition must match the first on all simulated counters.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "apps/minidb.h"
#include "apps/workloads.h"
#include "layers.h"
#include "os/sched/sched.h"

namespace hostbench
{

using namespace cheri;

namespace
{

constexpr u64 kSlides = 5;

struct Counters
{
    u64 insns = 0;
    u64 cycles = 0;
    u64 l1iMisses = 0;
    u64 l1dMisses = 0;
    u64 l2Misses = 0;
    u64 codeBytes = 0;
    u64 itlbAccesses = 0;
    u64 itlbMisses = 0;
    u64 dtlbAccesses = 0;
    u64 dtlbMisses = 0;

    static Counters
    of(CostModel &c)
    {
        return {c.instructions(), c.cycles(),      c.cache().l1iMisses(),
                c.l1dMisses(),    c.l2Misses(),    c.codeBytes(),
                c.itlbAccesses(), c.itlbMisses(),  c.dtlbAccesses(),
                c.dtlbMisses()};
    }

    std::vector<u64>
    list() const
    {
        return {insns,     cycles,       l1iMisses,  l1dMisses,
                l2Misses,  codeBytes,    itlbAccesses, itlbMisses,
                dtlbAccesses, dtlbMisses};
    }
};

/** Figure 4 cycle overheads as documented in EXPERIMENTS.md, printed
 *  beside the measured ones so drift shows. */
const std::map<std::string, double> documentedCyclesPct = {
    {"security-sha", -4.3},        {"office-stringsearch", 0.0},
    {"auto-qsort", 8.3},           {"auto-basicmath", 0.0},
    {"network-dijkstra", 0.0},     {"network-patricia", 28.7},
    {"telco-adpcm-enc", 0.0},      {"telco-adpcm-dec", 0.0},
    {"spec2006-gobmk", 0.0},       {"spec2006-libquantum", 0.0},
    {"spec2006-astar", 24.4},      {"spec2006-xalancbmk", 60.0},
};

/** The kernels the paper names as paying for 16-byte pointers. */
bool
pointerDense(const std::string &name)
{
    return name == "network-patricia" || name == "spec2006-astar" ||
           name == "spec2006-xalancbmk" || name == "auto-qsort";
}

enum class InitdbMode
{
    Mips64,
    CheriAbi,
    Asan,
};

struct Item
{
    /** Index into figure4Workloads(), or nullopt for initdb. */
    std::optional<size_t> kernel;
    Abi abi = Abi::Mips64;
    InitdbMode initdb = InitdbMode::Mips64;
    /** ASLR slide of a kernel item. */
    u64 slide = 0;
};

/** The cycle of seed @p seed. */
std::vector<Item>
setUp(u64 seed)
{
    std::vector<Item> cycle;
    const auto &ws = apps::figure4Workloads();
    for (u64 i = 0; i < kSlides; ++i) {
        u64 slide = mix64(seed * kSlides + i) | 1;
        for (size_t k = 0; k < ws.size(); ++k) {
            cycle.push_back({k, Abi::Mips64, {}, slide});
            cycle.push_back({k, Abi::CheriAbi, {}, slide});
        }
    }
    for (InitdbMode m :
         {InitdbMode::Mips64, InitdbMode::CheriAbi, InitdbMode::Asan})
        cycle.push_back({std::nullopt, Abi::Mips64, m, 0});
    // Warm the host: every kernel once, untimed by the items, so the
    // first timed items do not pay lazy first-touch.
    for (const apps::Workload &w : ws)
        apps::runWorkload(w, Abi::Mips64, {}, cycle[0].slide);
    return cycle;
}

/** Per-layer accumulators over traced items. */
struct LayerSums
{
    double kernelItems = 0;
    double items = 0;
    u64 derivations = 0;
    u64 kernelInsns = 0;
    Counters sim;
    MetricsTotals mx;
};

/** One Figure 4 kernel item, booted as runWorkload boots it. */
Counters
runKernelItem(Run &run, const apps::Workload &w, Abi abi, u64 slide,
              bool traced, LayerSums &sums, DispatchGaps &gaps)
{
    obs::Metrics mx;
    DerivationCounter derivs;
    KernelConfig cfg;
    cfg.aslrSeed = slide;
    std::unique_ptr<Kernel> kern;
    Process *proc = nullptr;
    {
        Tracer::Scope boot(run.trace, "os.boot");
        kern = std::make_unique<Kernel>(cfg);
        if (traced) {
            kern->setMetrics(&mx);
            kern->setTrace(&derivs);
            gaps.install(*kern);
        }
        SelfObject prog;
        prog.name = w.name;
        prog.textSize = 0x8000;
        proc = kern->spawn(abi, w.name);
        if (!proc || kern->execve(*proc, prog, {w.name}, {}) != E_OK)
            throw std::runtime_error("execve failed: " + w.name);
    }
    GuestContext ctx(*kern, *proc);
    GuestMalloc heap(ctx);
    proc->cost().reset();
    gaps.restart();
    {
        Tracer::Scope runSpan(run.trace, "guest.run");
        sched::schedulerFor(*kern).runHosted(*proc,
                                             [&] { w.run(ctx, heap); });
    }
    Counters c = Counters::of(proc->cost());
    if (traced) {
        sums.kernelItems += 1;
        sums.derivations += derivs.n;
        sums.kernelInsns += c.insns;
        sums.mx.add(mx);
    }
    {
        Tracer::Scope down(run.trace, "os.teardown");
        kern.reset();
    }
    return c;
}

Counters
runInitdbItem(Run &run, InitdbMode mode)
{
    Tracer::Scope span(run.trace, "guest.initdb");
    apps::InitdbResult r =
        mode == InitdbMode::Asan
            ? apps::runInitdb(Abi::Mips64, {}, true)
            : apps::runInitdb(mode == InitdbMode::CheriAbi ? Abi::CheriAbi
                                                           : Abi::Mips64);
    Counters c;
    c.insns = r.instructions;
    c.cycles = r.cycles;
    c.l2Misses = r.l2Misses;
    c.codeBytes = r.codeBytes;
    return c;
}

const char *
initdbName(InitdbMode m)
{
    switch (m) {
      case InitdbMode::Mips64: return "initdb-mips64";
      case InitdbMode::CheriAbi: return "initdb-cheriabi";
      case InitdbMode::Asan: return "initdb-asan";
    }
    return "?";
}

double
overheadPct(double base, double x)
{
    return base > 0 ? (x - base) / base * 100.0 : 0;
}

/**
 * The paper's Figure 4 shape, over the medians of the five slides.
 * Returns the names of the kernels (or "initdb") whose check failed.
 */
std::vector<std::string>
checkShape(Run &run,
           const std::map<std::pair<size_t, Abi>, std::vector<u64>> &cycles,
           const std::map<InitdbMode, u64> &initdb)
{
    std::vector<std::string> bad;
    const auto &ws = apps::figure4Workloads();
    auto median = [](std::vector<u64> v) {
        std::sort(v.begin(), v.end());
        return static_cast<double>(v[v.size() / 2]);
    };
    char line[256];
    run.note("Figure 4 cycle overhead, CheriABI vs mips64 (median of 5 "
             "slides) | EXPERIMENTS.md");
    for (size_t k = 0; k < ws.size(); ++k) {
        double pct = overheadPct(median(cycles.at({k, Abi::Mips64})),
                                 median(cycles.at({k, Abi::CheriAbi})));
        const std::string &name = ws[k].name;
        auto doc = documentedCyclesPct.find(name);
        std::snprintf(line, sizeof line, "  %-22s %+7.1f%% | %+6.1f%%",
                      name.c_str(), pct,
                      doc == documentedCyclesPct.end() ? 0.0 : doc->second);
        run.note(line);
        bool ok = true;
        // Only pointer-dense kernels may leave the +-10% band, and
        // those pay (never gain) cycles.
        if (!pointerDense(name) && std::abs(pct) > 10.0)
            ok = false;
        if (pointerDense(name) && pct <= 0)
            ok = false;
        // The separate capability register file makes sha faster.
        if (name == "security-sha" && pct >= 0)
            ok = false;
        if (pointerDense(name) && pct <= 10.0)
            run.note("  shape note: " + name +
                     " is inside +-10% cycles (the paper puts it "
                     "outside)");
        if (!ok)
            bad.push_back(name);
    }
    double m = static_cast<double>(initdb.at(InitdbMode::Mips64));
    double c = static_cast<double>(initdb.at(InitdbMode::CheriAbi));
    double a = static_cast<double>(initdb.at(InitdbMode::Asan));
    std::snprintf(line, sizeof line,
                  "  %-22s %+7.1f%% | +7.8%% (paper +6.8%%); ASan %.2fx | "
                  "3.32x (paper 3.29x)",
                  "initdb-dynamic", overheadPct(m, c), m > 0 ? a / m : 0);
    run.note(line);
    // The paper's direction: CheriABI costs a little, ASan a lot more.
    if (!(c > m && a > c))
        bad.push_back("initdb");
    return bad;
}

} // namespace

void
runFig4Hosted(Run &run)
{
    std::vector<Item> cycle;
    auto setup = [&] { cycle = setUp(run.opts.seed); };
    run.timeSetup(setup);
    const auto &ws = apps::figure4Workloads();

    // Reference counters of each distinct item: runWorkload's for a
    // kernel, the first run's for initdb (it takes no slide).
    std::vector<std::optional<Counters>> reference(cycle.size());
    std::map<std::pair<size_t, Abi>, std::vector<u64>> shapeCycles;
    std::map<InitdbMode, u64> shapeInitdb;
    // Items run and items failed per kernel; the last slot is initdb.
    std::vector<u64> itemsRun(ws.size() + 1, 0);
    std::vector<u64> itemsFailed(ws.size() + 1, 0);
    LayerSums sums;
    DispatchGaps gaps;

    startLoop(run);
    u64 c = 0;
    do {
        // A traced run alternates traced and untraced cycles; the
        // untraced ones measure the tracing overhead.
        bool traced = run.opts.trace && c % 2 == 0;
        run.trace.setOn(traced);
        for (u64 key = 0; key < cycle.size(); ++key) {
            const Item &it = cycle[key];
            u64 index = run.attempted;
            run.trace.setItem(index);
            Clock::time_point t0 = Clock::now();
            Counters got;
            {
                Tracer::Scope itemSpan(run.trace, "item");
                got = it.kernel ? runKernelItem(run, ws[*it.kernel], it.abi,
                                                it.slide, traced, sums, gaps)
                                : runInitdbItem(run, it.initdb);
            }
            double ms = secondsBetween(t0, Clock::now()) * 1e3;

            // Check against the reference path, untimed.
            std::string what = it.kernel ? ws[*it.kernel].name
                                         : initdbName(it.initdb);
            if (!reference[key]) {
                Counters ref = got;
                if (it.kernel) {
                    apps::WorkloadResult r = apps::runWorkload(
                        ws[*it.kernel], it.abi, {}, it.slide);
                    ref.insns = r.instructions;
                    ref.cycles = r.cycles;
                    ref.l2Misses = r.l2Misses;
                    ref.codeBytes = r.codeBytes;
                    shapeCycles[{*it.kernel, it.abi}].push_back(
                        got.cycles);
                } else {
                    shapeInitdb[it.initdb] = got.cycles;
                }
                reference[key] = ref;
                // Every distinct item enters the digest once.
                run.fold(got.list(), 1);
            }
            bool ok = got.list() == reference[key]->list();
            if (!ok)
                run.fail(index, what + ": simulated counters differ "
                                       "from the reference run");
            if (run.opts.plantFailure && index == 0) {
                ok = false;
                run.fail(index, "planted failure");
            }
            size_t k = it.kernel ? *it.kernel : ws.size();
            ++itemsRun[k];
            if (!ok)
                ++itemsFailed[k];
            if (traced) {
                sums.items += 1;
                sums.sim.insns += got.insns;
                sums.sim.cycles += got.cycles;
                sums.sim.l1iMisses += got.l1iMisses;
                sums.sim.l1dMisses += got.l1dMisses;
                sums.sim.l2Misses += got.l2Misses;
            }
            run.item(key, ms, ok, got.insns, traced);
        }
        ++c;
    } while (run.nextCycle(setup));

    // A failed shape check fails every item of that kernel (or every
    // initdb item) not already counted as failed.
    for (const std::string &name : checkShape(run, shapeCycles, shapeInitdb)) {
        size_t k = ws.size();
        for (size_t i = 0; i < ws.size(); ++i) {
            if (ws[i].name == name)
                k = i;
        }
        run.failed += itemsRun[k] - itemsFailed[k];
        std::fprintf(stderr, "hostbench: Figure 4 shape check failed for "
                             "%s\n",
                     name.c_str());
    }

    if (run.opts.trace) {
        auto spans = run.trace.totals();
        run.layer["os.boot_ms"] = spans["os.boot"].meanMs();
        run.layer["guest.run_ms"] = spans["guest.run"].meanMs();
        run.layer["guest.host_ns_per_sim_insn"] =
            ratio(spans["guest.run"].totalMs * 1e6,
                  static_cast<double>(sums.kernelInsns));
        run.layer["cap.derivations"] =
            ratio(static_cast<double>(sums.derivations), sums.kernelItems);
        run.layer["machine.l1d_mpki"] =
            ratio(static_cast<double>(sums.sim.l1dMisses) * 1e3,
                  static_cast<double>(sums.sim.insns));
        run.layer["machine.l2_miss_ratio"] =
            ratio(static_cast<double>(sums.sim.l2Misses),
                  static_cast<double>(sums.sim.l1iMisses +
                                      sums.sim.l1dMisses));
        run.layer["machine.sim_cycles"] =
            ratio(static_cast<double>(sums.sim.cycles), sums.items);
        putMetricsTotals(run, sums.mx, sums.kernelItems);
        run.layer["os.dispatch_gap_us_p50"] = quantile(gaps.gapsUs, 0.5);
    }
}

} // namespace hostbench
