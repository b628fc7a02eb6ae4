/**
 * @file
 * Shared helpers for the reproduction benches: setup failure, host
 * timing, and the one result report every bench prints through.
 */

#ifndef CHERI_BENCH_BENCH_UTIL_H
#define CHERI_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/json.h"

namespace cheri::bench
{

/** A bench that cannot set up its workload (a failed boot, map or
 *  store) says why on stderr and exits 1 instead of aborting.  The app
 *  drivers (apps::runWorkload, runInitdb, ...) throw on a failed boot;
 *  the benches that call them catch that in a function-try-block on
 *  main and end here. */
[[noreturn]] inline void
setupFailed(const char *bench, const std::string &what)
{
    std::fprintf(stderr, "%s: setup failed: %s\n", bench, what.c_str());
    std::exit(1);
}

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Make @p v opaque to the optimizer, as if read and rewritten: a
 *  timing loop can neither drop the work that produced it nor hoist
 *  work that consumes it out of the loop. */
template <typename T>
inline void
doNotOptimize(T &v)
{
    asm volatile("" : "+m"(v) : : "memory");
}

/**
 * One bench's results, each listed once, printed one of two ways.
 *
 * A bench records every metric, row table and gate once; finish()
 * prints either the human tables or, under --json, one cheri.bench.v1
 * envelope and nothing else on stdout:
 *
 *     {"schema":"cheri.bench.v1","bench":...,"build_type":...,
 *      "host_ns":...,"metrics":{key:value,...},
 *      "tables":{key:[{column:value,...},...],...},
 *      "gates":[{"name":...,"value":...,"bound":...,"pass":...},...]}
 *
 * plus any embedded documents under their own keys.  Gate verdicts go
 * to stderr.  A Check gate (a bound on host time or on a result's
 * shape) fails the run only under --check; an Always gate (a wrong
 * result, whatever the host) fails it in every mode.
 */
class Report
{
  public:
    using Value = std::variant<u64, double, bool, std::string>;
    enum class Enforce { Check, Always };

    struct Table
    {
        std::string key;
        std::string title;
        std::vector<std::string> columns;
        std::vector<std::vector<Value>> rows;

        void
        row(std::vector<Value> cells)
        {
            rows.push_back(std::move(cells));
        }
    };

    Report(std::string bench, std::string title, int argc, char **argv)
        : name(std::move(bench)), heading(std::move(title)),
          args(argv + 1, argv + argc)
    {
        for (const std::string &a : args) {
            jsonOut |= a == "--json";
            checkGates |= a == "--check";
        }
    }

    /** The value of a bench-specific "--flag N" option, or @p dflt. */
    u64
    option(std::string_view flag, u64 dflt) const
    {
        for (size_t i = 0; i + 1 < args.size(); ++i) {
            if (args[i] == flag)
                return std::strtoull(args[i + 1].c_str(), nullptr, 0);
        }
        return dflt;
    }

    /** Text printed under the human tables only. */
    void note(std::string text) { notes.push_back(std::move(text)); }

    void
    metric(std::string key, std::string label, Value v)
    {
        metrics.push_back({std::move(key), std::move(label), std::move(v)});
    }

    /** A row table: @p columns are the row keys in JSON and the column
     *  headers in the human table. */
    Table &
    table(std::string key, std::string title,
          std::vector<std::string> columns)
    {
        return tables.emplace_back(
            Table{std::move(key), std::move(title), std::move(columns), {}});
    }

    /** Embed a complete JSON document under @p key (JSON output only). */
    void
    document(std::string key, std::string json)
    {
        documents.emplace_back(std::move(key), std::move(json));
    }

    void
    atLeast(std::string gate, double value, double bound,
            Enforce e = Enforce::Check)
    {
        gates.push_back({std::move(gate), value, bound, value >= bound, e});
    }

    void
    atMost(std::string gate, double value, double bound,
           Enforce e = Enforce::Check)
    {
        gates.push_back({std::move(gate), value, bound, value <= bound, e});
    }

    /** A yes/no condition: value 1 when it holds, against bound 1. */
    void
    require(std::string gate, bool holds, Enforce e = Enforce::Check)
    {
        gates.push_back({std::move(gate), holds ? 1.0 : 0.0, 1.0, holds, e});
    }

    /** Print the report and the gate verdicts; returns the exit code. */
    int
    finish() const
    {
        u64 hostNs = static_cast<u64>(secondsSince(start) * 1e9);
        if (jsonOut)
            std::printf("%s\n", envelope(hostNs).c_str());
        else
            printHuman();

        int failed = 0;
        for (const Gate &g : gates) {
            bool counts = checkGates || g.enforce == Enforce::Always;
            if (g.pass || !counts)
                continue;
            ++failed;
            std::fprintf(stderr, "%s: FAIL %s: value %g, bound %g\n",
                         name.c_str(), g.name.c_str(), g.value, g.bound);
        }
        if (checkGates && !failed && !gates.empty())
            std::fprintf(stderr, "%s: all %zu gates passed\n",
                         name.c_str(), gates.size());
        return failed ? 1 : 0;
    }

  private:
    struct Metric
    {
        std::string key;
        std::string label;
        Value value;
    };

    struct Gate
    {
        std::string name;
        double value;
        double bound;
        bool pass;
        Enforce enforce;
    };

    /** Doubles go out in their shortest round-trip form, not
     *  JsonWriter's 4 significant digits, so a committed report keeps
     *  small host-time deltas.  JSON has no NaN or infinity: null. */
    static void
    put(obs::JsonWriter &w, const Value &v)
    {
        const double *d = std::get_if<double>(&v);
        if (!d)
            return std::visit([&](const auto &x) { w.value(x); }, v);
        char buf[32];
        auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), *d);
        w.raw(std::isfinite(*d) && ec == std::errc()
                  ? std::string_view(buf, static_cast<size_t>(end - buf))
                  : "null");
    }

    static std::string
    text(const Value &v)
    {
        char buf[40];
        if (const u64 *u = std::get_if<u64>(&v))
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(*u));
        else if (const double *d = std::get_if<double>(&v))
            std::snprintf(buf, sizeof(buf),
                          *d >= 1000 || *d <= -1000 ? "%.0f" : "%.3f", *d);
        else if (const bool *b = std::get_if<bool>(&v))
            return *b ? "yes" : "no";
        else
            return std::get<std::string>(v);
        return buf;
    }

    std::string
    envelope(u64 hostNs) const
    {
        obs::JsonWriter w;
        w.beginObject();
        w.key("schema").value(std::string_view("cheri.bench.v1"));
        w.key("bench").value(std::string_view(name));
        w.key("build_type").value(std::string_view(CHERI_BUILD_TYPE));
        w.key("host_ns").value(hostNs);
        w.key("metrics").beginObject();
        for (const Metric &m : metrics) {
            w.key(m.key);
            put(w, m.value);
        }
        w.endObject();
        w.key("tables").beginObject();
        for (const Table &t : tables) {
            w.key(t.key).beginArray();
            for (const std::vector<Value> &r : t.rows) {
                w.beginObject();
                for (size_t c = 0; c < t.columns.size() && c < r.size(); ++c) {
                    w.key(t.columns[c]);
                    put(w, r[c]);
                }
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
        w.key("gates").beginArray();
        for (const Gate &g : gates) {
            w.beginObject();
            w.key("name").value(std::string_view(g.name));
            put(w.key("value"), g.value);
            put(w.key("bound"), g.bound);
            w.key("pass").value(g.pass);
            w.endObject();
        }
        w.endArray();
        for (const auto &[key, doc] : documents)
            w.key(key).raw(doc);
        w.endObject();
        return w.str();
    }

    void
    printHuman() const
    {
        std::string rule(64, '=');
        std::printf("%s\n%s\n%s\n", rule.c_str(), heading.c_str(),
                    rule.c_str());
        for (const Table &t : tables) {
            std::printf("\n%s\n", t.title.c_str());
            std::vector<size_t> width;
            for (const std::string &c : t.columns)
                width.push_back(c.size());
            for (const std::vector<Value> &r : t.rows) {
                for (size_t c = 0; c < width.size() && c < r.size(); ++c)
                    width[c] = std::max(width[c], text(r[c]).size());
            }
            for (size_t c = 0; c < width.size(); ++c)
                std::printf("%*s", static_cast<int>(width[c] + 2),
                            t.columns[c].c_str());
            std::printf("\n");
            for (const std::vector<Value> &r : t.rows) {
                for (size_t c = 0; c < width.size() && c < r.size(); ++c)
                    std::printf("%*s", static_cast<int>(width[c] + 2),
                                text(r[c]).c_str());
                std::printf("\n");
            }
        }
        if (!metrics.empty())
            std::printf("\n");
        for (const Metric &m : metrics)
            std::printf("%-44s %14s\n", m.label.c_str(),
                        text(m.value).c_str());
        for (const std::string &n : notes)
            std::printf("\n%s\n", n.c_str());
    }

    std::string name;
    std::string heading;
    std::vector<std::string> args;
    bool jsonOut = false;
    bool checkGates = false;
    Clock::time_point start = Clock::now();
    std::vector<std::string> notes;
    std::vector<Metric> metrics;
    /** A deque, so the Table& that table() hands out stays valid. */
    std::deque<Table> tables;
    std::vector<std::pair<std::string, std::string>> documents;
    std::vector<Gate> gates;
};

} // namespace cheri::bench

#endif // CHERI_BENCH_BENCH_UTIL_H
