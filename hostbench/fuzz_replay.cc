/**
 * @file
 * fuzz-replay: the robustness tooling users run as abi_fuzz and
 * cheri_replay.
 *
 * Each item is one DiffFuzzer case, run under both ABIs with the
 * invariant oracle at every syscall, recorded through a ReplaySession
 * and then replayed from its own log.  The mix is the one the
 * verification script (tools/cheri_verify.sh) runs the fuzzer in, one
 * case of each in turn: a classic single-process case, a
 * memory-constrained case whose frame and swap-slot budgets make
 * reclaim and swap run, and a multi-process case of three time-sliced
 * guests.  A cycle is 300 distinct cases whose seeds come from the run
 * seed.  An item
 * passes when neither half diverges or violates an invariant, the
 * replay reports no divergence, both halves end with bit-identical
 * metrics, and a repeated case records the same metrics as its first
 * run.
 */

#include <cstring>
#include <string>

#include "check/diff_fuzzer.h"
#include "check/replay.h"
#include "layers.h"

namespace hostbench
{

using namespace cheri;

namespace
{

/** Classic, constrained and multi-process cases, 1:1:1. */
constexpr u64 kMix = 3;
/** Distinct cases per cycle: a hundred of each mix slot, enough that
 *  the mean case cost varies little from seed to seed. */
constexpr u64 kCases = 100 * kMix;
constexpr u64 kOpsPerCase = 32;
/** Budgets of the constrained cases and guests of the multi-process
 *  ones, as the verification script runs them. */
constexpr u64 kFrameBudget = 48;
constexpr u64 kSlotBudget = 128;
constexpr u64 kMultiProc = 3;
/** Set-up cases per mix slot.  They are the same for every run seed,
 *  so that set-up time does not vary with the inputs. */
constexpr u64 kSetupCases = 3;
constexpr u64 kSetupSeed = ~u64{0};

check::FuzzOptions
caseOptions(u64 seed, u64 index)
{
    check::FuzzOptions o;
    o.seed = mix64(seed * 1000003 + index);
    o.cases = 1;
    o.opsPerCase = kOpsPerCase;
    o.checkEvery = 1;
    o.keepMetricsJson = true;
    switch (index % kMix) {
      case 1:
        o.frameCapacity = kFrameBudget;
        o.swapSlotBudget = kSlotBudget;
        break;
      case 2:
        o.multiProc = kMultiProc;
        break;
    }
    return o;
}

/** Sum of every number following @p key in @p json. */
u64
sumKey(const std::string &json, const char *key)
{
    u64 sum = 0;
    size_t len = std::strlen(key);
    for (size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + len))
        sum += std::strtoull(json.c_str() + at + len, nullptr, 10);
    return sum;
}

struct Recorded
{
    check::CaseReport report;
    std::vector<u8> log;
    u64 entries = 0;
};

Recorded
record(const check::FuzzOptions &o)
{
    check::ReplaySession session(check::ReplaySession::Mode::Record);
    check::FuzzOptions ro = o;
    ro.replay = &session;
    check::DiffFuzzer fuzzer(ro);
    Recorded r;
    r.report = fuzzer.runCase(0);
    session.finish();
    r.log = session.serialize(o);
    r.entries = session.entryCount();
    return r;
}

struct Replayed
{
    check::CaseReport report;
    u64 divergences = 0;
    std::string first;
};

Replayed
replay(const std::vector<u8> &log)
{
    check::ReplaySession session(check::ReplaySession::Mode::Replay);
    Replayed r;
    std::string err;
    if (!session.load(log, &err)) {
        r.divergences = 1;
        r.first = "log rejected: " + err;
        return r;
    }
    check::FuzzOptions o = session.options();
    o.replay = &session;
    o.keepMetricsJson = true;
    check::DiffFuzzer fuzzer(o);
    r.report = fuzzer.runCase(0);
    session.finish();
    r.divergences = session.divergenceCount();
    r.first = session.firstDivergence();
    return r;
}

std::string
verify(const Recorded &rec, const Replayed &rep)
{
    for (const check::CaseReport *r : {&rec.report, &rep.report}) {
        if (r->failed())
            return std::string(r == &rec.report ? "record" : "replay") +
                   " half: " + std::to_string(r->divergences.size()) +
                   " divergences, " + std::to_string(r->violations.size()) +
                   " oracle violations";
    }
    if (rep.divergences)
        return "replay divergence: " + rep.first;
    if (rec.report.metricsJson != rep.report.metricsJson)
        return "replayed metrics differ from the recording";
    return "";
}

struct LayerSums
{
    double items = 0;
    u64 oracleRuns = 0;
    u64 logEntries = 0;
    u64 syscalls = 0;
    u64 syscallErrors = 0;
    u64 steps = 0;
    u64 dtlbHits = 0;
    u64 dtlbMisses = 0;
    u64 fetchHits = 0;
    u64 fetchMisses = 0;
    u64 switches = 0;
    u64 preemptions = 0;
    u64 fdBlocks = 0;
    double noOracleMs = 0;
};

} // namespace

void
runFuzzReplay(Run &run)
{
    const u64 seed = run.opts.seed;
    // Set-up: a few cases of each mix slot (not among the timed ones),
    // recorded and replayed, so the loop starts with warm host state.
    auto setup = [&] {
        for (u64 i = 0; i < kSetupCases * kMix; ++i)
            replay(record(caseOptions(kSetupSeed, i)).log);
    };
    run.timeSetup(setup);

    LayerSums sums;
    // Per distinct case: a digest of its recorded metrics, which every
    // repetition must reproduce.
    std::vector<u64> caseDigest(kCases, 0);
    startLoop(run);
    u64 c = 0;
    do {
        // A traced run alternates traced and untraced cycles; the
        // untraced ones measure the tracing overhead.
        bool traced = run.opts.trace && c % 2 == 0;
        run.trace.setOn(traced);
        for (u64 key = 0; key < kCases; ++key) {
            u64 index = run.attempted;
            check::FuzzOptions o = caseOptions(seed, key);
            run.trace.setItem(index);
            Clock::time_point t0 = Clock::now();
            Recorded rec;
            Replayed rep;
            {
                Tracer::Scope item(run.trace, "item");
                {
                    Tracer::Scope s(run.trace, "check.record");
                    rec = record(o);
                }
                Tracer::Scope s(run.trace, "check.replay");
                rep = replay(rec.log);
            }
            double ms = secondsBetween(t0, Clock::now()) * 1e3;
            std::string err = verify(rec, rep);
            const std::string &json = rec.report.metricsJson;
            Digest metrics;
            for (char ch : json)
                metrics.add(static_cast<u8>(ch));
            if (c == 0) {
                caseDigest[key] = metrics.value();
                run.fold({rec.report.syscalls, rec.report.oracleRuns,
                          rec.entries, rec.log.size(), metrics.value()},
                         1);
            } else if (err.empty() && caseDigest[key] != metrics.value()) {
                err = "a repetition recorded different metrics";
            }
            if (run.opts.plantFailure && index == 0)
                err = "planted failure";
            if (!err.empty())
                run.fail(index, err);
            u64 steps = sumKey(json, "\"steps_executed\":");
            run.item(key, ms, err.empty(), 2 * steps, traced);
            if (!traced)
                continue;
            // The oracle's share: the record half again with the
            // oracle off, untimed by the item.
            check::FuzzOptions off = o;
            off.checkEvery = 0;
            Clock::time_point t1 = Clock::now();
            record(off);
            sums.noOracleMs += secondsBetween(t1, Clock::now()) * 1e3;
            sums.items += 1;
            sums.oracleRuns +=
                rec.report.oracleRuns + rep.report.oracleRuns;
            sums.logEntries += rec.entries;
            sums.syscalls += rec.report.syscalls + rep.report.syscalls;
            sums.syscallErrors += 2 * sumKey(json, "\"errors\":");
            sums.steps += 2 * steps;
            sums.dtlbHits += 2 * sumKey(json, "\"data_hits\":");
            sums.dtlbMisses += 2 * sumKey(json, "\"data_misses\":");
            sums.fetchHits += 2 * sumKey(json, "\"fetch_hits\":");
            sums.fetchMisses += 2 * sumKey(json, "\"fetch_misses\":");
            sums.switches += 2 * sumKey(json, "\"context_switches\":");
            sums.preemptions += 2 * sumKey(json, "\"preemptions\":");
            sums.fdBlocks += 2 * sumKey(json, "\"blocks_fd\":");
        }
        ++c;
    } while (run.nextCycle(setup));

    if (run.opts.trace) {
        auto spans = run.trace.totals();
        const Tracer::Total &rec = spans["check.record"];
        run.layer["check.record_ms"] = rec.meanMs();
        run.layer["check.replay_ms"] = spans["check.replay"].meanMs();
        run.layer["check.oracle_runs"] =
            ratio(static_cast<double>(sums.oracleRuns), sums.items);
        run.layer["check.log_entries"] =
            ratio(static_cast<double>(sums.logEntries), sums.items);
        run.layer["check.oracle_share"] =
            ratio(rec.totalMs - sums.noOracleMs, rec.totalMs);
        MetricsTotals t;
        t.syscalls = sums.syscalls;
        t.syscallErrors = sums.syscallErrors;
        t.dtlbHits = sums.dtlbHits;
        t.dtlbMisses = sums.dtlbMisses;
        t.fetchHits = sums.fetchHits;
        t.fetchMisses = sums.fetchMisses;
        putMetricsTotals(run, t, sums.items);
        run.layer["isa.steps"] =
            ratio(static_cast<double>(sums.steps), sums.items);
        run.layer["sched.context_switches"] =
            ratio(static_cast<double>(sums.switches), sums.items);
        run.layer["sched.preemptions"] =
            ratio(static_cast<double>(sums.preemptions), sums.items);
        run.layer["sched.fd_blocks"] =
            ratio(static_cast<double>(sums.fdBlocks), sums.items);
    }
}

} // namespace hostbench
