/**
 * @file
 * Unit tests for the common substrate: RNG determinism and
 * distributions, statistics accumulators, tables, the JSON writer
 * and checked file writes, argument parsing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <unistd.h>

#include "common/argparse.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/spec_registry.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace moca {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBoundsInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        saw_lo |= v == 2;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng rng(11);
    double sum = 0.0;
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(100.0);
    EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(Rng, CategoricalRespectsWeights)
{
    Rng rng(5);
    const std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
    std::vector<int> counts(4, 0);
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        counts[rng.categorical(w)]++;
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
    EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(StatAccum, BasicMoments)
{
    StatAccum s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatAccum, EmptyIsZero)
{
    StatAccum s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Percentiles)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
}

TEST(SampleSet, PercentileAfterLateAdd)
{
    SampleSet s;
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 1.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 3.0);
}

TEST(Stats, PercentileSummary)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i) // Unsorted on purpose.
        values.push_back(static_cast<double>(i));
    const PercentileSummary s = percentileSummary(values);
    EXPECT_NEAR(s.p50, 50.5, 1e-9);
    EXPECT_NEAR(s.p95, 95.05, 1e-9);
    EXPECT_NEAR(s.p99, 99.01, 1e-9);

    const PercentileSummary empty = percentileSummary({});
    EXPECT_EQ(empty.p50, 0.0);
    EXPECT_EQ(empty.p95, 0.0);
    EXPECT_EQ(empty.p99, 0.0);

    const PercentileSummary one = percentileSummary({7.0});
    EXPECT_EQ(one.p50, 7.0);
    EXPECT_EQ(one.p99, 7.0);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 8.0}), std::sqrt(8.0), 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Table, RenderAndCsv)
{
    Table t({"a", "b"});
    t.row().cell("x").cell(1.5, 1);
    t.row().cell("longer").cell(static_cast<long long>(7));
    const std::string out = t.render();
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    const std::string csv = t.csv();
    EXPECT_NE(csv.find("a,b"), std::string::npos);
    EXPECT_NE(csv.find("x,1.5"), std::string::npos);
}

TEST(Table, CsvQuoting)
{
    Table t({"h"});
    t.row().cell("va,lue");
    EXPECT_NE(t.csv().find("\"va,lue\""), std::string::npos);
}

TEST(Json, EscapesQuotesBackslashesAndControlChars)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("\n\t\r"), "\\n\\t\\r");
    EXPECT_EQ(jsonEscape(std::string("x\x01y")), "x\\u0001y");
}

static_assert(!std::is_constructible_v<JsonValue, double>,
              "floats must go through jsonFixed");

TEST(Json, ObjectLinesJoinWithIndent)
{
    const JsonValue v = jsonObject(
        {{{"a", 1}, {"b", "x"}}, {{"c", jsonFixed(0.5, 2)}}}, 5);
    EXPECT_EQ(v.text,
              "{\"a\": 1, \"b\": \"x\",\n     \"c\": 0.50}");
}

TEST(Json, DocumentLayout)
{
    EXPECT_EQ(jsonDocument({{{"bench", "b"}}, {{"n", 2}, {"m", 3}}}),
              "{\n  \"bench\": \"b\",\n  \"n\": 2, \"m\": 3\n}\n");
}

TEST(Json, ArrayLayouts)
{
    const std::vector<JsonValue> items = {1, "two"};
    EXPECT_EQ(jsonArray(items, 4, 2).text,
              "[\n    1,\n    \"two\"\n  ]");
    EXPECT_EQ(jsonArray(items, 6, -1).text,
              "[\n      1,\n      \"two\"]");
    EXPECT_EQ(jsonArray({}, 4, 2).text, "[]");
    EXPECT_EQ(jsonArray({}, 4, -1).text, "[]");
}

TEST(Json, FixedRoundsLikePrintf)
{
    EXPECT_EQ(jsonFixed(0.1234567, 6).text, "0.123457");
    EXPECT_EQ(jsonFixed(26321.4, 0).text, "26321");
    EXPECT_EQ(jsonFixed(1e20, 1).text, "100000000000000000000.0");
}

TEST(Json, EscapesKeysAndValues)
{
    EXPECT_EQ(jsonObject({{{"k\"ey", std::string("v\\al\n")}}}).text,
              "{\"k\\\"ey\": \"v\\\\al\\n\"}");
    EXPECT_EQ(JsonValue::raw("[1]").text, "[1]");
}

TEST(Json, IntegersAndBools)
{
    EXPECT_EQ(JsonValue(UINT64_MAX).text, "18446744073709551615");
    EXPECT_EQ(JsonValue(-7).text, "-7");
    EXPECT_EQ(JsonValue(true).text, "true");
    EXPECT_EQ(JsonValue(false).text, "false");
}

TEST(WriteTextFile, WritesExactBytes)
{
    const std::string path = testing::TempDir() + "moca_write_text.txt";
    const std::string text = "line one\n\"two\"\tthree\xe2\x80\x94\n";
    EXPECT_TRUE(writeTextFile(path, text));
    std::ifstream in(path, std::ios::binary);
    const std::string back((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(back, text);
    std::remove(path.c_str());
}

TEST(WriteTextFile, FailsOnMissingDirectory)
{
    EXPECT_FALSE(writeTextFile("/nonexistent-moca-dir/x.json", "{}"));
}

TEST(WriteTextFile, FailsOnFullDevice)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full not available";
    EXPECT_FALSE(writeTextFile("/dev/full", "{}\n"));
}

TEST(ArgParse, CommaLists)
{
    EXPECT_EQ(parseIntList("socs", "1,4,64"),
              (std::vector<int>{1, 4, 64}));
    EXPECT_EQ(parseDoubleList("fail-rates", "0,2.5"),
              (std::vector<double>{0.0, 2.5}));
    EXPECT_DEATH(parseIntList("socs", ""),
                 "socs needs at least one value");
    EXPECT_DEATH(parseDoubleList("rates", "1,x"),
                 "rates=x is not a number");
}

TEST(ArgMap, ParsesTypes)
{
    const char *argv[] = {"prog", "tasks=300", "load=0.9", "flag",
                          "name=abc"};
    ArgMap args(5, const_cast<char **>(argv));
    EXPECT_EQ(args.getInt("tasks", 0), 300);
    EXPECT_DOUBLE_EQ(args.getDouble("load", 0.0), 0.9);
    EXPECT_TRUE(args.getBool("flag", false));
    EXPECT_EQ(args.getString("name", ""), "abc");
    EXPECT_EQ(args.getInt("missing", 17), 17);
}

TEST(Units, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv<std::uint64_t>(1, 256), 1u);
}

// --- SpecRegistry ------------------------------------------------------

/** A product built against a two-part context, to check that make()
 *  forwards the context to the factory. */
struct Widget
{
    int size = 0;
    std::string label;
    std::string spec;
};

using WidgetRegistry = SpecRegistry<Widget, int, const std::string &>;

WidgetRegistry::Info
widgetInfo(const std::string &name)
{
    return {name, "test widget", {{"k", "int", "0", "a knob"}},
            [](int size, const std::string &label, const Spec &spec) {
                return std::make_unique<Widget>(
                    Widget{size, label, spec.canonical()});
            }};
}

TEST(SpecRegistry, MakeForwardsContextAndSpec)
{
    WidgetRegistry reg("widget", "widgets", "list-widgets", "widget");
    reg.add(widgetInfo("w"));
    const auto w = reg.make("w:k=3", 7, "seven");
    EXPECT_EQ(w->size, 7);
    EXPECT_EQ(w->label, "seven");
    EXPECT_EQ(w->spec, "w:k=3");
    EXPECT_EQ(reg.names(), (std::vector<std::string>{"w"}));
    EXPECT_STREQ(reg.listFlag(), "list-widgets");
    EXPECT_STREQ(reg.selectFlag(), "widget");
}

TEST(SpecRegistry, ValidateTrialBuildsOnlyWithATrialContext)
{
    int builds = 0;
    auto counting = [&builds](const std::string &name) {
        auto info = widgetInfo(name);
        info.factory = [&builds](int size, const std::string &label,
                                 const Spec &spec) {
            ++builds;
            return std::make_unique<Widget>(
                Widget{size, label, spec.canonical()});
        };
        return info;
    };
    WidgetRegistry structural("widget", "widgets", "list-widgets",
                              "widget");
    structural.add(counting("w"));
    structural.validate("w:k=1");
    EXPECT_EQ(builds, 0);

    WidgetRegistry trial("widget", "widgets", "list-widgets", "widget",
                         std::make_tuple(1, std::string("trial")));
    trial.add(counting("w"));
    trial.validate("w:k=1");
    EXPECT_EQ(builds, 1);
}

TEST(SpecRegistryDeathTest, RegistrationErrorsAreFatal)
{
    WidgetRegistry reg("widget", "widgets", "list-widgets", "widget");
    EXPECT_DEATH(reg.add(widgetInfo("")),
                 "cannot register a widget with an empty name");
    for (const char *bad : {"a:b", "a,b", "a=b"})
        EXPECT_DEATH(reg.add(widgetInfo(bad)),
                     "may not contain ':', ',' or '='");
    auto no_factory = widgetInfo("bare");
    no_factory.factory = nullptr;
    EXPECT_DEATH(reg.add(no_factory),
                 "widget 'bare' registered without a factory");
    reg.add(widgetInfo("w"));
    EXPECT_DEATH(reg.add(widgetInfo("w")),
                 "widget 'w' is already registered");
}

TEST(SpecRegistryDeathTest, LookupErrorsNameTheRegistry)
{
    WidgetRegistry reg("widget", "widgets", "list-widgets", "widget");
    reg.add(widgetInfo("gadget"));
    EXPECT_DEATH((void)reg.make("gadgt", 1, "x"),
                 "unknown widget 'gadgt' \\(did you mean 'gadget'\\?\\); "
                 "known widgets: gadget \\(run with --list-widgets");
    EXPECT_DEATH(reg.validate("gadget:q=1"),
                 "widget 'gadget' has no parameter 'q'; declared "
                 "parameters: k");
}

} // namespace
} // namespace moca
