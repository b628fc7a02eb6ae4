/**
 * @file
 * Compatibility-corpus tests: every idiom must behave exactly as the
 * Table 2 taxonomy predicts — legacy form works under mips64, faults
 * (or is merely flagged) under CheriABI, fixed form works under both.
 */

#include <gtest/gtest.h>

#include "compat/idioms.h"

namespace cheri::compat
{
namespace
{

TEST(CompatCorpus, HasAllElevenClasses)
{
    std::set<CompatClass> classes;
    std::set<Component> components;
    for (const Idiom &i : corpus()) {
        classes.insert(i.cls);
        components.insert(i.component);
    }
    EXPECT_EQ(classes.size(), numCompatClasses);
    EXPECT_EQ(components.size(), numComponents);
    EXPECT_GE(corpus().size(), 30u);
}

class CompatIdiom : public ::testing::TestWithParam<size_t>
{
};

TEST_P(CompatIdiom, BehavesAsTaxonomyPredicts)
{
    const Idiom &idiom = corpus()[GetParam()];
    EXPECT_EQ(runScenario(idiom.legacy, Abi::Mips64), Outcome::Worked)
        << idiom.name << ": legacy form must work on mips64";
    // A legacy form that breaks under CheriABI must trap or be refused;
    // a failed boot or a host error is a different failure.
    Outcome cheri = runScenario(idiom.legacy, Abi::CheriAbi);
    if (idiom.legacyTrapsUnderCheri) {
        EXPECT_TRUE(cheri == Outcome::Trapped || cheri == Outcome::Refused)
            << idiom.name << ": legacy form must fail under CheriABI";
    } else {
        EXPECT_EQ(cheri, Outcome::Worked)
            << idiom.name << ": legacy form must keep working";
    }
    EXPECT_EQ(runScenario(idiom.fixed, Abi::CheriAbi), Outcome::Worked)
        << idiom.name << ": fixed form must work under CheriABI";
    EXPECT_EQ(runScenario(idiom.fixed, Abi::Mips64), Outcome::Worked)
        << idiom.name << ": fixed form must stay mips64-compatible";
}

INSTANTIATE_TEST_SUITE_P(
    All, CompatIdiom, ::testing::Range<size_t>(0, corpus().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        std::string name = corpus()[info.param].name;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(CompatCorpus, RunScenarioTellsTrapsFromOtherFailures)
{
    EXPECT_EQ(runScenario([](GuestContext &) { return true; }, Abi::CheriAbi),
              Outcome::Worked);
    EXPECT_EQ(runScenario([](GuestContext &) { return false; }, Abi::CheriAbi),
              Outcome::Refused);
    auto overrun = [](GuestContext &ctx) {
        GuestPtr p = ctx.mmap(pageSize);
        ctx.load<u8>(p, pageSize);
        return true;
    };
    EXPECT_EQ(runScenario(overrun, Abi::CheriAbi), Outcome::Trapped);
    auto host_error = [](GuestContext &) -> bool {
        throw std::runtime_error("not a capability trap");
    };
    EXPECT_EQ(runScenario(host_error, Abi::CheriAbi), Outcome::Broken);
}

TEST(CompatCorpus, TableCoversEveryIdiom)
{
    auto results = runCorpus();
    for (const IdiomResult &r : results) {
        EXPECT_TRUE(r.consistent()) << r.idiom->name;
    }
    CompatTable table = tabulate(results);
    unsigned total = 0;
    for (const auto &[comp, row] : table) {
        for (const auto &[cls, n] : row)
            total += n;
    }
    EXPECT_EQ(total, corpus().size());
    std::string rendered = formatTable(table);
    EXPECT_NE(rendered.find("BSD libraries"), std::string::npos);
    EXPECT_NE(rendered.find("PP"), std::string::npos);
}

} // namespace
} // namespace cheri::compat
