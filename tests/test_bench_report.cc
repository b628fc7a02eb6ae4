/**
 * @file
 * bench::Report envelope tests: what --json puts on stdout.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "bench_util.h"

namespace cheri
{
namespace
{

/** The --json envelope of @p rep, as finish() prints it. */
std::string
envelope(const bench::Report &rep)
{
    testing::internal::CaptureStdout();
    EXPECT_EQ(rep.finish(), 0);
    return testing::internal::GetCapturedStdout();
}

/** The number after the first "<key>": in @p json. */
double
numberAt(const std::string &json, const std::string &key)
{
    size_t at = json.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return 0;
    return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

TEST(BenchReport, EnvelopeDoublesRoundTrip)
{
    char prog[] = "bench", json[] = "--json";
    char *argv[] = {prog, json};
    bench::Report rep("bench", "doubles", 2, argv);
    // Four significant digits would print these as 1.003e+07 and 0.3333.
    const double rate = 10031234.567;
    const double third = 1.0 / 3.0;
    rep.metric("rate", "rate", rate);
    rep.metric("third", "third", third);
    rep.metric("undefined", "undefined",
               std::numeric_limits<double>::quiet_NaN());
    rep.atLeast("rate_floor", rate, third);

    std::string out = envelope(rep);
    EXPECT_EQ(numberAt(out, "rate"), rate);
    EXPECT_EQ(numberAt(out, "third"), third);
    EXPECT_EQ(numberAt(out, "value"), rate);
    EXPECT_EQ(numberAt(out, "bound"), third);
    EXPECT_NE(out.find("\"undefined\":null"), std::string::npos) << out;
}

} // namespace
} // namespace cheri
