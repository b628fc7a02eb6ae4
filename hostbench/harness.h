/**
 * @file
 * Measurement harness of the host-time benchmark.
 *
 * A run is a closed loop: one host thread executes a workload's items
 * back to back, each starting after the previous one completes.  The
 * harness times set-up and every item with std::chrono::steady_clock,
 * counts correctness failures, folds the simulated counters of the
 * first cycle into a digest, and — in a traced run — keeps spans
 * around the calls into each simulator layer in memory until the run
 * ends.  Nothing here reaches into the simulator: spans and counts are
 * taken from the benchmark's own code, around public calls.
 */

#ifndef CHERI_HOSTBENCH_HARNESS_H
#define CHERI_HOSTBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace hostbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** Quantile @p q (0..1) of @p v by linear interpolation; 0 if empty. */
double quantile(std::vector<double> v, double q);

/** @p num / @p den, reading 0 when @p den is 0. */
double ratio(double num, double den);

/** SplitMix64: derives independent streams from the run seed. */
std::uint64_t mix64(std::uint64_t x);

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Deliberately fail the first item's check (self-test of the
     *  failure accounting). */
    bool plantFailure = false;
    /** Traced run: where the raw spans are written (empty = nowhere). */
    std::string spansOut;
};

/**
 * In-memory span recorder.  Each span records its name, the item it
 * belongs to, start, end and parent; self time is the span's duration
 * minus the part its children cover.  When off, open/close cost one
 * branch.
 */
class Tracer
{
  public:
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    void setOn(bool on) { enabled = on; }
    bool on() const { return enabled; }
    /** The item index recorded in spans opened from now on. */
    void setItem(std::uint64_t item) { curItem = item; }

    std::uint32_t open(const char *name);
    void close(std::uint32_t id);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : t(t), id(t.open(name)) {}
        ~Scope() { t.close(id); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t;
        std::uint32_t id;
    };

    struct Total
    {
        std::uint64_t count = 0;
        double totalMs = 0;
        double selfMs = 0;

        double meanMs() const { return ratio(totalMs, count); }
    };
    /** Per-name count, total and self time. */
    std::map<std::string, Total> totals() const;
    bool writeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t item;
        std::uint32_t parent;
        std::int64_t startNs;
        std::int64_t endNs;
    };
    std::vector<Span> spans;
    std::uint32_t current = none;
    std::uint64_t curItem = 0;
    bool enabled = false;
    Clock::time_point epoch = Clock::now();
};

/** FNV-1a over simulated counters. */
class Digest
{
  public:
    void add(std::uint64_t v);
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/**
 * Host-speed probe.  The machine this benchmark was built on is shared,
 * and other tenants slow its allocation- and cache-heavy code by 10-40%
 * for seconds to minutes at a time.  The probe is a fixed piece of such
 * code, malloc/free churn over small blocks, that never calls into the
 * simulator.  It runs after every item, outside the item's timing, so
 * its time follows the host's speed over the same seconds.
 */
class Probe
{
  public:
    /** The probe's typical time on the reference host (see NOTES.md). */
    static constexpr double referenceMs = 0.15;

    /** Run the probe once; returns its host time in milliseconds. */
    double sampleMs();

  private:
    /** Allocate and free @p n small blocks of random sizes. */
    void churn(unsigned n);

    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    std::uint64_t sink = 0;
};

/**
 * Everything one run measures.  Workloads fill it; report() turns it
 * into the printed metrics.
 *
 * A workload's items form a cycle of distinct items (the same inputs
 * every cycle of one seed), and the run repeats the cycle until
 * --seconds have passed.  Every repetition must simulate identically.
 *
 * Host times are normalised for host speed when the run ends: each item
 * run (and each set-up) is scaled by Probe::referenceMs over the median
 * of the probe samples taken around it, hostWindow on either side.  An
 * item's time is then the median of its normalised repetitions, and
 * setup_s the median of the normalised set-ups.  The raw figures, in
 * which every repetition counts unscaled, are printed too.
 *
 * The set-up runs once before the first cycle and once more before
 * every later one, each time with tracing off, so that its samples
 * spread across the run like the items.
 */
struct Run
{
    /** Tracing starts off; a traced run turns it on for its traced
     *  cycles. */
    explicit Run(const Options &o) : opts(o) {}

    const Options &opts;
    Tracer trace;

    /** Probe samples on either side of an item run in the window
     *  whose median normalises it. */
    static constexpr size_t hostWindow = 10;

    /** One item run, in the order run: its raw host time and the time
     *  of the probe sampled right after it. */
    struct Rep
    {
        std::uint64_t key;
        double ms;
        double probeMs;
        bool traced;
    };
    std::vector<Rep> reps;
    /** One set-up: its raw host time, and the index in reps of the
     *  first item run after it. */
    struct Setup
    {
        double seconds;
        size_t nextRep;
    };
    std::vector<Setup> setups;

    /** One distinct item: the simulated instructions of its first run.
     *  normalise() fills in the normalised host time of each of its
     *  repetitions run with tracing off and on. */
    struct Distinct
    {
        std::vector<double> ms;
        std::vector<double> tracedMs;
        std::uint64_t simInsns = 0;
        std::uint64_t runs = 0;
    };
    std::vector<Distinct> distinct;
    /** Normalised host time of every set-up (filled by normalise()). */
    std::vector<double> setupSeconds;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Digest of the simulated counters of the first cycle, the same
     *  in every run of one seed. */
    Digest digest;
    std::uint64_t digested = 0;

    /** Per-layer metrics by name (traced run). */
    std::map<std::string, double> layer;
    /** Lines printed before the result (notes, checks, tables). */
    std::vector<std::string> notes;

    Clock::time_point loopStart;

    /** Time one call of @p setup, with tracing off. */
    void timeSetup(const std::function<void()> &setup);

    /** Whether the loop should run another cycle (--seconds not yet
     *  over).  Loops run at least one whole cycle.  Before another
     *  cycle it times one more call of @p setup, so that the set-up
     *  samples spread across the run as the items do. */
    bool nextCycle(const std::function<void()> &setup);

    /** Record one run of distinct item @p key (its index in the
     *  cycle), then sample the probe.  A repetition that simulates a
     *  different number of instructions than the first fails. */
    void item(std::uint64_t key, double ms, bool ok,
              std::uint64_t sim_insns, bool traced);

    /** Fold simulated counters covering @p items items into the
     *  digest. */
    void fold(const std::vector<std::uint64_t> &counters,
              std::uint64_t items);

    /** Print a check failure for item @p index. */
    void fail(std::uint64_t index, const std::string &what);

    void note(const std::string &line) { notes.push_back(line); }

    /** Scale every item run and set-up for host speed into
     *  Distinct::ms, Distinct::tracedMs and setupSeconds. */
    void normalise();

  private:
    Probe probe;

    /** Probe::referenceMs over the median probe time of the runs within
     *  hostWindow of item run @p at. */
    double hostScale(size_t at) const;
};

/** Start the loop clock (after set-up). */
void startLoop(Run &run);

/** Print notes, the digest, the traced tables and the final JSON
 *  line.  Returns the process exit code. */
int report(Run &run);

/** The workloads. */
void runFig4Hosted(Run &run);
void runInterpSched(Run &run);
void runFuzzReplay(Run &run);

} // namespace hostbench

#endif // CHERI_HOSTBENCH_HARNESS_H
