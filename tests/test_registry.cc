/**
 * @file
 * Tests for the open policy registry: spec-string grammar
 * round-trips, loud failures on unknown names/parameters (with
 * did-you-mean), parameterized specs changing behavior measurably,
 * and bit-exact parity between a policy sweep grid and the low-level
 * runTrace path on a fig5-style cell.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/registry.h"
#include "exp/scenario.h"
#include "exp/sweep/sweep.h"

namespace moca::exp {
namespace {

workload::TraceConfig
smallTrace(workload::WorkloadSet set, workload::QosLevel qos,
           int tasks, std::uint64_t seed = 3)
{
    workload::TraceConfig t;
    t.set = set;
    t.qos = qos;
    t.numTasks = tasks;
    t.seed = seed;
    return t;
}

// --- Spec grammar ----------------------------------------------------

TEST(PolicySpec, ParsesBareNameAndParams)
{
    const auto bare = PolicySpec::parse("moca", "policy");
    EXPECT_EQ(bare.name, "moca");
    EXPECT_TRUE(bare.params.empty());
    EXPECT_EQ(bare.canonical(), "moca");

    const auto p = PolicySpec::parse("moca:tick=2048,threshold=fixed", "policy");
    EXPECT_EQ(p.name, "moca");
    ASSERT_EQ(p.params.size(), 2u);
    EXPECT_EQ(p.params[0].first, "tick");
    EXPECT_EQ(p.params[0].second, "2048");
    EXPECT_EQ(p.params[1].first, "threshold");
    EXPECT_EQ(p.params[1].second, "fixed");
    EXPECT_EQ(p.canonical(), "moca:tick=2048,threshold=fixed");
}

TEST(PolicySpec, MalformedSpecsDie)
{
    EXPECT_DEATH(PolicySpec::parse("", "policy"), "empty policy spec");
    EXPECT_DEATH(PolicySpec::parse("moca:tick", "policy"), "key=value");
    EXPECT_DEATH(PolicySpec::parse("moca:=5", "policy"), "key=value");
}

TEST(PolicyList, SplitsSpecsAndContinuationParams)
{
    const auto specs =
        splitSpecList("moca:tick=2048,threshold=fixed,prema", "--policy");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0], "moca:tick=2048,threshold=fixed");
    EXPECT_EQ(specs[1], "prema");

    const auto plain = splitSpecList("moca,prema", "--policy");
    ASSERT_EQ(plain.size(), 2u);
    EXPECT_EQ(plain[0], "moca");
    EXPECT_EQ(plain[1], "prema");
}

// --- Registry lookups ------------------------------------------------

TEST(PolicyRegistry, RoundTripsEveryRegisteredSpec)
{
    const sim::SocConfig cfg;
    auto &reg = PolicyRegistry::instance();
    ASSERT_GE(reg.names().size(), 5u); // 4 mechanisms + solo.
    for (const auto &name : reg.names()) {
        SCOPED_TRACE(name);
        EXPECT_EQ(PolicySpec::parse(name, "policy").canonical(), name);
        auto policy = reg.make(name, cfg);
        ASSERT_NE(policy, nullptr);
        // Spec defaults must reproduce the declared schema defaults:
        // applying every declared default explicitly is a no-op spec
        // that must also build.
        std::string full = name;
        const auto &info = reg.info(name);
        for (std::size_t i = 0; i < info.params.size(); ++i) {
            // Enum-typed defaults round-trip too ("scaled").
            full += (i == 0 ? ":" : ",") + info.params[i].key + "=" +
                info.params[i].defaultValue;
        }
        EXPECT_NE(reg.make(full, cfg), nullptr) << full;
    }
}

TEST(PolicyRegistry, BuiltinOrderMatchesPaperPresentation)
{
    EXPECT_EQ(allPolicySpecs(),
              (std::vector<std::string>{"prema", "static", "planaria",
                                        "moca"}));
    for (const auto &spec : allPolicySpecs())
        EXPECT_TRUE(PolicyRegistry::instance().contains(spec));
}

TEST(PolicyRegistry, UnknownNameDiesWithDidYouMean)
{
    const sim::SocConfig cfg;
    EXPECT_DEATH((void)PolicyRegistry::instance().make("mocha", cfg),
                 "did you mean 'moca'");
    EXPECT_DEATH((void)PolicyRegistry::instance().make("nonsense",
                                                       cfg),
                 "known policies: prema, static, planaria, moca");
}

TEST(PolicyRegistry, UnknownParamDiesListingSchema)
{
    const sim::SocConfig cfg;
    EXPECT_DEATH(
        (void)PolicyRegistry::instance().make("moca:bogus=1", cfg),
        "no parameter 'bogus'");
    EXPECT_DEATH(
        (void)PolicyRegistry::instance().make("prema:slots=2", cfg),
        "declared parameters: preempt_margin");
}

TEST(PolicyRegistry, ValidateIsStructuralNotConfigDependent)
{
    // validate() must not reject specs whose parameter ranges depend
    // on the SoC they eventually run on: "solo:tiles=16" is invalid
    // for the 8-tile default config but valid for a 16-tile SoC.
    auto &reg = PolicyRegistry::instance();
    reg.validate("solo:tiles=16"); // must not die
    sim::SocConfig big;
    big.numTiles = 16;
    EXPECT_NE(reg.make("solo:tiles=16", big), nullptr);
    const sim::SocConfig small;
    EXPECT_DEATH((void)reg.make("solo:tiles=16", small),
                 "tiles must be in");
}

TEST(PolicyRegistry, MalformedValueDies)
{
    const sim::SocConfig cfg;
    EXPECT_DEATH(
        (void)PolicyRegistry::instance().make("moca:slots=banana",
                                              cfg),
        "not an integer");
    EXPECT_DEATH(
        (void)PolicyRegistry::instance().make("moca:threshold=maybe",
                                              cfg),
        "expected 'scaled' or 'fixed'");
}

// --- Parameterized specs change behavior -----------------------------

TEST(PolicyRegistry, TickParameterChangesBehaviorMeasurably)
{
    // A fixed 2048-cycle throttle window must pace the memory-heavy
    // mix differently than the prediction-derived windows.
    const sim::SocConfig cfg;
    const auto t = smallTrace(workload::WorkloadSet::B,
                              workload::QosLevel::Medium, 60);
    const auto stream = makeTrace(t, cfg);
    const auto base = runTrace("moca", stream, t, cfg);
    const auto tick = runTrace("moca:tick=2048", stream, t, cfg);
    EXPECT_GT(base.totalThrottleReconfigs, 0);
    EXPECT_NE(base.makespan, tick.makespan);

    // And the knob composes with others in one spec.
    const auto combo =
        runTrace("moca:tick=2048,threshold=fixed", stream, t, cfg);
    EXPECT_EQ(combo.policy, "moca:tick=2048,threshold=fixed");
    EXPECT_EQ(combo.jobs.size(), stream.size());
}

TEST(PolicyRegistry, SlotsParameterChangesAdmission)
{
    const sim::SocConfig cfg;
    const auto t = smallTrace(workload::WorkloadSet::C,
                              workload::QosLevel::Medium, 40);
    const auto stream = makeTrace(t, cfg);
    const auto four = runTrace("moca", stream, t, cfg);
    const auto two = runTrace("moca:slots=2", stream, t, cfg);
    EXPECT_NE(four.makespan, two.makespan);
}

TEST(PolicyRegistry, DefaultParamsReproduceBareSpec)
{
    // Explicit defaults are bit-identical to the bare name.
    const sim::SocConfig cfg;
    const auto t = smallTrace(workload::WorkloadSet::C,
                              workload::QosLevel::Medium, 30);
    const auto stream = makeTrace(t, cfg);
    const auto bare = runTrace("moca", stream, t, cfg);
    const auto expl =
        runTrace("moca:tick=0,threshold=scaled,slots=4", stream, t,
                 cfg);
    EXPECT_EQ(bare.makespan, expl.makespan);
    EXPECT_EQ(bare.metrics.slaRate, expl.metrics.slaRate);
}

// --- Policy-grid parity with the low-level path ---------------------

TEST(PolicyCells, MatchRunTraceBitExactlyOnFig5Cell)
{
    // One fig5 cell (Workload-A / QoS-M): a parallel sweep grid built
    // by appendPolicyCells must reproduce the direct runTrace path bit
    // for bit, for every policy on the identical stream.
    const sim::SocConfig cfg;
    const auto t = smallTrace(workload::WorkloadSet::A,
                              workload::QosLevel::Medium, 40, 1);
    const auto stream = makeTrace(t, cfg);

    std::vector<SweepCell> grid;
    appendPolicyCells(grid, "fig5", allPolicySpecs(), t, cfg);
    SweepOptions opts;
    opts.jobs = 2;
    const auto results = SweepRunner(opts).run(grid);
    ASSERT_EQ(results.size(), allPolicySpecs().size());

    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string &spec = allPolicySpecs()[i];
        SCOPED_TRACE(spec);
        const auto direct = runTrace(spec, stream, t, cfg);
        const auto &via = results[i];
        EXPECT_EQ(via.policy, spec);
        EXPECT_EQ(via.makespan, direct.makespan);
        EXPECT_EQ(via.totalMigrations, direct.totalMigrations);
        EXPECT_EQ(via.totalPreemptions, direct.totalPreemptions);
        EXPECT_EQ(via.totalThrottleReconfigs,
                  direct.totalThrottleReconfigs);
        EXPECT_EQ(via.metrics.slaRate, direct.metrics.slaRate);
        EXPECT_EQ(via.metrics.stp, direct.metrics.stp);
        EXPECT_EQ(via.metrics.fairness, direct.metrics.fairness);
        ASSERT_EQ(via.jobs.size(), direct.jobs.size());
        for (std::size_t j = 0; j < via.jobs.size(); ++j) {
            EXPECT_EQ(via.jobs[j].finish, direct.jobs[j].finish);
            EXPECT_EQ(via.jobs[j].stallCycles,
                      direct.jobs[j].stallCycles);
        }
    }
}

} // namespace
} // namespace moca::exp
