/**
 * @file
 * Failure-injection tests: every user-facing misuse must fail loudly
 * (fatal) and every internal invariant violation must abort (panic),
 * never corrupt state silently — the gem5-style error discipline the
 * codebase follows (fatal = user error, panic = simulator bug).
 */

#include <gtest/gtest.h>

#include "common/argparse.h"
#include "common/rng.h"
#include "common/stats.h"
#include "dnn/model_zoo.h"
#include "exp/oracle.h"
#include "moca/moca_policy.h"
#include "sim/arbiter.h"
#include "sim/soc.h"

namespace moca {
namespace {

sim::JobSpec
spec(int id, dnn::ModelId model)
{
    sim::JobSpec s;
    s.id = id;
    s.model = &dnn::getModel(model);
    s.slaLatency = 1'000'000'000;
    return s;
}

TEST(Errors, JobWithoutModelIsFatal)
{
    sim::SocConfig cfg;
    exp::SoloPolicy policy(8);
    sim::Soc soc(cfg, policy);
    sim::JobSpec s;
    s.id = 0;
    s.model = nullptr;
    EXPECT_DEATH(soc.addJob(s), "no model");
}

TEST(Errors, NonDenseJobIdsAreFatal)
{
    sim::SocConfig cfg;
    exp::SoloPolicy policy(8);
    sim::Soc soc(cfg, policy);
    EXPECT_DEATH(soc.addJob(spec(3, dnn::ModelId::Kws)), "dense");
}

TEST(Errors, TileOverAllocationPanics)
{
    sim::SocConfig cfg;
    exp::SoloPolicy policy(8);
    sim::Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::Kws));
    soc.addJob(spec(1, dnn::ModelId::Kws));
    soc.run(); // completes both; but manual misuse must still trap
    EXPECT_DEATH(soc.startJob(0, 1), "not startable");
}

TEST(Errors, StartMoreTilesThanFreePanics)
{
    sim::SocConfig cfg;

    struct GreedyPolicy : sim::Policy
    {
        const char *name() const override { return "greedy"; }
        void
        schedule(sim::Soc &soc, sim::SchedEvent) override
        {
            const std::vector<int> waiting = soc.waitingJobs();
            for (int id : waiting)
                soc.startJob(id, 16); // more than the SoC has
        }
    };
    GreedyPolicy policy;
    sim::Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::Kws));
    EXPECT_DEATH(soc.run(), "tiles requested");
}

TEST(Errors, BadJobIdPanics)
{
    sim::SocConfig cfg;
    exp::SoloPolicy policy(8);
    sim::Soc soc(cfg, policy);
    EXPECT_DEATH(soc.job(0), "bad job id");
}

TEST(Errors, InvalidSocConfigIsFatal)
{
    exp::SoloPolicy policy(1);
    sim::SocConfig bad_tiles;
    bad_tiles.numTiles = 0;
    EXPECT_DEATH(sim::Soc(bad_tiles, policy), "tile");
    sim::SocConfig bad_quantum;
    bad_quantum.quantum = 0;
    EXPECT_DEATH(sim::Soc(bad_quantum, policy), "quantum");
}

TEST(Errors, ArbiterRejectsInvalidInputs)
{
    EXPECT_DEATH(sim::allocateBandwidth({{-1.0, 1.0}}, 10.0),
                 "negative");
    EXPECT_DEATH(sim::allocateBandwidth({{1.0, 0.0}}, 10.0),
                 "weight");
    EXPECT_DEATH(
        sim::allocateBandwidthProportional({{1.0, -2.0}}, 10.0),
        "weight");
}

TEST(Errors, RngRejectsBadRanges)
{
    Rng rng(1);
    EXPECT_DEATH(rng.uniformInt(5, 2), "lo");
    EXPECT_DEATH(rng.exponential(0.0), "positive");
    EXPECT_DEATH(rng.categorical({0.0, 0.0}), "zero");
    EXPECT_DEATH(rng.categorical({1.0, -1.0}), "negative");
}

TEST(Errors, GeomeanRejectsNonPositive)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
}

TEST(Errors, ArgMapRejectsMalformedValues)
{
    const char *argv[] = {"prog", "tasks=abc"};
    ArgMap args(2, const_cast<char **>(argv));
    EXPECT_DEATH(args.getInt("tasks", 0), "not an integer");
    const char *argv2[] = {"prog", "load=x"};
    ArgMap args2(2, const_cast<char **>(argv2));
    EXPECT_DEATH(args2.getDouble("load", 0.0), "not a number");
    const char *argv3[] = {"prog", "flag=maybe"};
    ArgMap args3(2, const_cast<char **>(argv3));
    EXPECT_DEATH(args3.getBool("flag", false), "not a boolean");
}

TEST(Errors, ArgMapRejectsUnreadArguments)
{
    // A misspelled key (fail-rate for fail-rates) must not run the
    // defaults silently.
    const char *argv[] = {"prog", "tasks=3", "fail-rate=400"};
    ArgMap args(3, const_cast<char **>(argv));
    EXPECT_EQ(args.getInt("tasks", 0), 3);
    EXPECT_EQ(args.getString("fail-rates", "0"), "0");
    EXPECT_DEATH(args.requireAllRead(), "unknown argument.*fail-rate");

    // Nor may a dashed flag the program does not have.
    const char *argv2[] = {"prog", "--jobs", "2", "--verbos"};
    ArgMap args2(4, const_cast<char **>(argv2));
    EXPECT_EQ(args2.getInt("jobs", 1), 2);
    EXPECT_FALSE(args2.getBool("verbose", false));
    EXPECT_DEATH(args2.requireAllRead(), "unknown argument.*verbos");

    // Looking a key up counts as reading it, given or not.
    EXPECT_TRUE(args2.has("verbos"));
    args2.requireAllRead();
}

TEST(Errors, UnknownModelNameIsFatal)
{
    EXPECT_DEATH(dnn::modelIdFromName("resnet51"), "unknown model");
    EXPECT_DEATH(dnn::modelIdFromName(""), "unknown model");
}

TEST(Errors, BadPolicyConfigsAreFatal)
{
    sim::SocConfig cfg;
    MocaPolicyConfig too_many_slots;
    too_many_slots.slots = 99;
    EXPECT_DEATH(MocaPolicy(cfg, too_many_slots), "slots");
}

TEST(Errors, GroupedConvChannelMismatchIsFatal)
{
    EXPECT_DEATH(dnn::Layer::conv("c", 8, 8, 7, 16, 3, 1, 1, 2),
                 "groups");
}

TEST(Errors, PercentileOutOfRangePanics)
{
    SampleSet s;
    s.add(1.0);
    EXPECT_DEATH(s.percentile(101.0), "percentile");
}

} // namespace
} // namespace moca
