#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hostbench
{

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint32_t
Tracer::open(const char *name)
{
    if (!enabled)
        return none;
    std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - epoch)
                           .count();
    spans.push_back({name, curItem, current, now, -1});
    current = static_cast<std::uint32_t>(spans.size() - 1);
    return current;
}

void
Tracer::close(std::uint32_t id)
{
    if (id == none)
        return;
    spans[id].endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch)
                          .count();
    current = spans[id].parent;
}

std::map<std::string, Tracer::Total>
Tracer::totals() const
{
    std::vector<double> childNs(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent != none)
            childNs[s.parent] += static_cast<double>(s.endNs - s.startNs);
    }
    std::map<std::string, Total> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        double ns = static_cast<double>(spans[i].endNs - spans[i].startNs);
        Total &t = out[spans[i].name];
        ++t.count;
        t.totalMs += ns / 1e6;
        t.selfMs += (ns - childNs[i]) / 1e6;
    }
    return out;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"schema\":\"hostbench.spans.v1\",\"spans\":[");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n{\"id\":%zu,\"name\":\"%s\",\"item\":%" PRIu64
                     ",\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}",
                     i ? "," : "", i, s.name, s.item,
                     s.parent == none ? -1LL
                                      : static_cast<long long>(s.parent),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

void
Probe::churn(unsigned n)
{
    // A ring of 256 live blocks of 16-511 bytes, each freed and
    // replaced in turn.
    void *ring[256] = {};
    for (unsigned i = 0; i < n; ++i) {
        void *&slot = ring[i % 256];
        std::free(slot);
        rng = mix64(rng);
        slot = std::malloc(16 + rng % 496);
        if (slot)
            *static_cast<unsigned char *>(slot) =
                static_cast<unsigned char>(i);
        sink += reinterpret_cast<std::uintptr_t>(slot);
    }
    for (void *p : ring)
        std::free(p);
}

double
Probe::sampleMs()
{
    // An untimed pass first leaves the allocator's free lists holding
    // the probe's own blocks, so that the timed pass mostly recycles
    // them whatever the item before left behind.
    churn(2000);
    Clock::time_point t0 = Clock::now();
    churn(4000);
    return secondsBetween(t0, Clock::now()) * 1e3;
}

void
Run::timeSetup(const std::function<void()> &setup)
{
    bool wasOn = trace.on();
    trace.setOn(false);
    Clock::time_point t0 = Clock::now();
    setup();
    setups.push_back({secondsBetween(t0, Clock::now()), reps.size()});
    trace.setOn(wasOn);
}

bool
Run::nextCycle(const std::function<void()> &setup)
{
    if (secondsBetween(loopStart, Clock::now()) >= opts.seconds)
        return false;
    timeSetup(setup);
    return true;
}

void
Run::item(std::uint64_t key, double ms, bool ok, std::uint64_t sim_insns,
          bool traced)
{
    if (key >= distinct.size())
        distinct.resize(key + 1);
    Distinct &d = distinct[key];
    if (d.runs++ == 0) {
        d.simInsns = sim_insns;
    } else if (d.simInsns != sim_insns) {
        ok = false;
        fail(attempted, "a repetition simulated a different instruction "
                        "count");
    }
    ++attempted;
    if (!ok)
        ++failed;
    reps.push_back({key, ms, probe.sampleMs(), traced});
}

double
Run::hostScale(size_t at) const
{
    size_t lo = at > hostWindow ? at - hostWindow : 0;
    size_t hi = std::min(reps.size(), at + hostWindow + 1);
    std::vector<double> window;
    for (size_t i = lo; i < hi; ++i)
        window.push_back(reps[i].probeMs);
    double mid = quantile(window, 0.5);
    return mid > 0 ? Probe::referenceMs / mid : 1;
}

void
Run::normalise()
{
    for (size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        Distinct &d = distinct[r.key];
        (r.traced ? d.tracedMs : d.ms).push_back(r.ms * hostScale(i));
    }
    for (const Setup &s : setups)
        setupSeconds.push_back(s.seconds * hostScale(s.nextRep));
}

void
Run::fold(const std::vector<std::uint64_t> &counters, std::uint64_t items)
{
    for (std::uint64_t c : counters)
        digest.add(c);
    digested += items;
}

void
Run::fail(std::uint64_t index, const std::string &what)
{
    std::fprintf(stderr, "hostbench: %s item %" PRIu64 " failed: %s\n",
                 opts.workload.c_str(), index, what.c_str());
}

void
startLoop(Run &run)
{
    run.loopStart = Clock::now();
}

namespace
{

struct LayerMetric
{
    const char *name;
    const char *unit;
    /** The end-to-end metric and workload this layer should move. */
    const char *moves;
};

/** The per-layer metrics, each with the end-to-end metric it should
 *  move.  A layer a workload never enters reads 0 there. */
const LayerMetric layerMetrics[] = {
    {"os.boot_ms", "ms",
     "item_ms_p50 on fig4-hosted; setup_s on interp-sched"},
    {"guest.run_ms", "ms", "sim_mips on fig4-hosted"},
    {"guest.host_ns_per_sim_insn", "ns", "sim_mips on fig4-hosted"},
    {"cap.derivations", "count",
     "sim_mips on fig4-hosted (pointer-dense items)"},
    {"machine.l1d_mpki", "1/kinsn",
     "explains sim_mips on fig4-hosted; identical in host-time changes"},
    {"machine.l2_miss_ratio", "ratio",
     "explains sim_mips on fig4-hosted; identical in host-time changes"},
    {"machine.sim_cycles", "count",
     "explains sim_mips on fig4-hosted; identical in host-time changes"},
    {"mem.dtlb_hit_ratio", "ratio", "sim_mips on interp-sched"},
    {"mem.itlb_hit_ratio", "ratio", "sim_mips on interp-sched"},
    {"mem.dtlb_misses", "count", "sim_mips on interp-sched"},
    {"isa.steps", "count",
     "sim_mips on interp-sched; no change on fig4-hosted"},
    {"isa.host_ns_per_step", "ns",
     "sim_mips on interp-sched; no change on fig4-hosted"},
    {"isa.decode_hit_ratio", "ratio",
     "sim_mips on interp-sched; no change on fig4-hosted"},
    {"sched.slice_us_p50", "us", "item_ms_p90 on interp-sched"},
    {"sched.context_switches", "count", "item_ms_p90 on interp-sched"},
    {"sched.preemptions", "count", "item_ms_p90 on interp-sched"},
    {"sched.fd_blocks", "count", "item_ms_p90 on interp-sched"},
    {"os.syscalls", "count",
     "items_per_s on fuzz-replay; item_ms_p90 on interp-sched"},
    {"os.syscall_errors", "count",
     "items_per_s on fuzz-replay; item_ms_p90 on interp-sched"},
    {"os.dispatch_gap_us_p50", "us",
     "items_per_s on fuzz-replay; item_ms_p90 on interp-sched"},
    {"snapshot.save_ms", "ms", "item_ms_p90 on interp-sched"},
    {"snapshot.restore_ms", "ms", "item_ms_p90 on interp-sched"},
    {"snapshot.image_mb", "MiB", "item_ms_p90 on interp-sched"},
    {"snapshot.share", "ratio", "item_ms_p90 on interp-sched"},
    {"check.record_ms", "ms",
     "items_per_s and item_ms_p50 on fuzz-replay"},
    {"check.replay_ms", "ms",
     "items_per_s and item_ms_p50 on fuzz-replay"},
    {"check.oracle_runs", "count",
     "items_per_s and item_ms_p50 on fuzz-replay"},
    {"check.log_entries", "count",
     "items_per_s and item_ms_p50 on fuzz-replay"},
    {"check.oracle_share", "ratio",
     "items_per_s on fuzz-replay; no change elsewhere"},
    {"trace.overhead_share", "ratio",
     "none: median traced over median untraced item time, minus 1"},
};

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

int
report(Run &run)
{
    run.normalise();
    for (const std::string &n : run.notes)
        std::printf("%s\n", n.c_str());

    double failRatio = ratio(static_cast<double>(run.failed),
                             static_cast<double>(run.attempted));
    std::printf("digest %s seed %" PRIu64 " items %" PRIu64 ": %016" PRIx64
                "\n",
                run.opts.workload.c_str(), run.opts.seed, run.digested,
                run.digest.value());
    std::printf("fail_ratio %s (%" PRIu64 " of %" PRIu64 " items)\n",
                num(failRatio).c_str(), run.failed, run.attempted);

    std::string metrics;
    auto put = [&](const std::string &name, double v, const char *unit) {
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + name + "\": {\"value\": " + num(v) +
                   ", \"unit\": \"" + unit + "\"}";
    };

    if (!run.opts.trace) {
        // Gated: each distinct item's median over its normalised
        // repetitions.
        std::vector<double> med;
        double medSum = 0, rawSum = 0;
        std::uint64_t sim = 0;
        for (const Run::Distinct &d : run.distinct) {
            if (d.ms.empty())
                continue;
            med.push_back(quantile(d.ms, 0.5));
            medSum += med.back();
            sim += d.simInsns;
        }
        std::vector<double> rawMs, rawSetup, probeMs;
        for (const Run::Rep &r : run.reps) {
            rawSum += r.ms;
            rawMs.push_back(r.ms);
            probeMs.push_back(r.probeMs);
        }
        for (const Run::Setup &s : run.setups)
            rawSetup.push_back(s.seconds);
        double n = static_cast<double>(med.size());
        std::printf("samples: %zu distinct items, %zu runs (%.1f each), "
                    "%zu set-ups\n",
                    med.size(), rawMs.size(),
                    ratio(static_cast<double>(rawMs.size()), n),
                    rawSetup.size());
        std::printf("raw, every run counted: items_per_s %.4f, item_ms_p50 "
                    "%.4f, item_ms_p90 %.4f, setup_s median %.6f\n",
                    ratio(static_cast<double>(rawMs.size()) * 1e3, rawSum),
                    quantile(rawMs, 0.5), quantile(rawMs, 0.9),
                    quantile(rawSetup, 0.5));
        std::printf("host probe: median %.4f ms, quartiles %.4f to %.4f; "
                    "reference %.4f ms\n",
                    quantile(probeMs, 0.5), quantile(probeMs, 0.25),
                    quantile(probeMs, 0.75), Probe::referenceMs);
        put("sim_mips", ratio(static_cast<double>(sim), medSum * 1e3),
            "Minsn/s");
        put("items_per_s", ratio(n * 1e3, medSum), "1/s");
        put("item_ms_p50", quantile(med, 0.5), "ms");
        put("item_ms_p90", quantile(med, 0.9), "ms");
        put("setup_s", quantile(run.setupSeconds, 0.5), "s");
        put("peak_rss_mb", peakRssMb(), "MiB");
    } else {
        // Tracing overhead, paired by item: median traced over median
        // untraced time of the items run both ways.
        double traced = 0, untraced = 0;
        for (const Run::Distinct &d : run.distinct) {
            if (!d.ms.empty() && !d.tracedMs.empty()) {
                traced += quantile(d.tracedMs, 0.5);
                untraced += quantile(d.ms, 0.5);
            }
        }
        run.layer["trace.overhead_share"] =
            untraced > 0 ? traced / untraced - 1 : 0;
        std::printf("tracing overhead: median traced %.3f ms vs median "
                    "untraced %.3f ms, summed over the items run both "
                    "ways\n",
                    traced, untraced);
        std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_ms",
                    "self_ms");
        for (const auto &[name, t] : run.trace.totals())
            std::printf("%-28s %8" PRIu64 " %12.3f %12.3f\n", name.c_str(),
                        t.count, t.totalMs, t.selfMs);
        std::printf("%-28s %14s %-8s %s\n", "layer metric", "value", "unit",
                    "should move");
        for (const LayerMetric &m : layerMetrics) {
            double v = run.layer.count(m.name) ? run.layer[m.name] : 0;
            std::printf("%-28s %14.6g %-8s %s\n", m.name, v, m.unit,
                        m.moves);
            put(m.name, v, m.unit);
        }
        if (!run.opts.spansOut.empty() &&
            !run.trace.writeJson(run.opts.spansOut)) {
            std::fprintf(stderr, "hostbench: cannot write %s\n",
                         run.opts.spansOut.c_str());
            return 1;
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                run.failed == 0 ? "true" : "false", run.attempted,
                run.failed, metrics.c_str());
    return 0;
}

} // namespace hostbench
