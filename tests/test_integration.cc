/**
 * @file
 * End-to-end integration tests: full multi-tenant scenarios through
 * the trace generator, simulator, policies and metrics, asserting the
 * paper's headline *shapes* (who wins, and where) on small but
 * non-trivial traces.  These are the same code paths the Fig. 5-8
 * benches exercise at full size.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "exp/matrix.h"
#include "exp/oracle.h"
#include "exp/scenario.h"

namespace moca::exp {
namespace {

workload::TraceConfig
trace(workload::WorkloadSet set, workload::QosLevel qos, int tasks,
      std::uint64_t seed = 3)
{
    workload::TraceConfig t;
    t.set = set;
    t.qos = qos;
    t.numTasks = tasks;
    t.seed = seed;
    return t;
}

TEST(Integration, AllPoliciesCompleteEveryJob)
{
    const sim::SocConfig cfg;
    const auto t = trace(workload::WorkloadSet::C,
                         workload::QosLevel::Medium, 40);
    const auto specs = makeTrace(t, cfg);
    for (const std::string &spec : allPolicySpecs()) {
        const auto r = runTrace(spec, specs, t, cfg);
        EXPECT_EQ(r.jobs.size(), 40u) << spec;
        EXPECT_GT(r.metrics.stp, 0.0) << spec;
        EXPECT_GT(r.makespan, 0u) << spec;
    }
}

TEST(Integration, IdenticalTraceAcrossPolicies)
{
    const sim::SocConfig cfg;
    const auto t = trace(workload::WorkloadSet::A,
                         workload::QosLevel::Medium, 30);
    const auto specs = makeTrace(t, cfg);
    const auto moca = runTrace("moca", specs, t, cfg);
    const auto prema = runTrace("prema", specs, t, cfg);
    // Same dispatched jobs, different outcomes.
    ASSERT_EQ(moca.jobs.size(), prema.jobs.size());
    for (const auto &j : moca.jobs) {
        bool found = false;
        for (const auto &k : prema.jobs) {
            if (k.spec.id == j.spec.id) {
                EXPECT_EQ(k.spec.dispatch, j.spec.dispatch);
                EXPECT_EQ(k.spec.priority, j.spec.priority);
                found = true;
            }
        }
        EXPECT_TRUE(found);
    }
}

TEST(Integration, MocaBeatsPremaUnderLoad)
{
    const sim::SocConfig cfg;
    const auto t = trace(workload::WorkloadSet::C,
                         workload::QosLevel::Medium, 80);
    const auto specs = makeTrace(t, cfg);
    const auto moca = runTrace("moca", specs, t, cfg);
    const auto prema = runTrace("prema", specs, t, cfg);
    EXPECT_GT(moca.metrics.slaRate, prema.metrics.slaRate);
    EXPECT_GT(moca.metrics.stp, prema.metrics.stp);
}

TEST(Integration, MocaBeatsPlanariaOnHeavyMix)
{
    const sim::SocConfig cfg;
    const auto t = trace(workload::WorkloadSet::B,
                         workload::QosLevel::Medium, 80);
    const auto specs = makeTrace(t, cfg);
    const auto moca = runTrace("moca", specs, t, cfg);
    const auto plan = runTrace("planaria", specs, t, cfg);
    EXPECT_GE(moca.metrics.slaRate, plan.metrics.slaRate);
    EXPECT_GT(moca.metrics.stp, plan.metrics.stp);
}

TEST(Integration, MocaAtLeastMatchesStaticOnHeavyMix)
{
    const sim::SocConfig cfg;
    const auto t = trace(workload::WorkloadSet::B,
                         workload::QosLevel::Hard, 80);
    const auto specs = makeTrace(t, cfg);
    const auto moca = runTrace("moca", specs, t, cfg);
    const auto stat =
        runTrace("static", specs, t, cfg);
    EXPECT_GE(moca.metrics.slaRate, stat.metrics.slaRate);
}

TEST(Integration, TighterQosLowersSatisfaction)
{
    const sim::SocConfig cfg;
    for (const std::string &spec :
         {std::string("moca"), std::string("static")}) {
        const auto l = runScenario(
            spec, trace(workload::WorkloadSet::C,
                        workload::QosLevel::Light, 60), cfg);
        const auto h = runScenario(
            spec, trace(workload::WorkloadSet::C,
                        workload::QosLevel::Hard, 60), cfg);
        EXPECT_GE(l.metrics.slaRate, h.metrics.slaRate) << spec;
    }
}

TEST(Integration, PlanariaMigratesMoreThanMoca)
{
    const sim::SocConfig cfg;
    const auto t = trace(workload::WorkloadSet::A,
                         workload::QosLevel::Medium, 60);
    const auto specs = makeTrace(t, cfg);
    const auto moca = runTrace("moca", specs, t, cfg);
    const auto plan = runTrace("planaria", specs, t, cfg);
    EXPECT_GT(plan.totalMigrations, moca.totalMigrations);
}

TEST(Integration, MocaThrottleEngagesOnMemoryHeavyMix)
{
    const sim::SocConfig cfg;
    const auto t = trace(workload::WorkloadSet::B,
                         workload::QosLevel::Medium, 40);
    const auto r = runScenario("moca", t, cfg);
    EXPECT_GT(r.totalThrottleReconfigs, 0);
}

TEST(Integration, ResultsAreDeterministic)
{
    const sim::SocConfig cfg;
    const auto t = trace(workload::WorkloadSet::C,
                         workload::QosLevel::Medium, 30, 7);
    const auto a = runScenario("moca", t, cfg);
    const auto b = runScenario("moca", t, cfg);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.metrics.slaRate, b.metrics.slaRate);
    EXPECT_DOUBLE_EQ(a.metrics.stp, b.metrics.stp);
}

TEST(Integration, HigherPriorityGroupsFareBetterUnderMoca)
{
    const sim::SocConfig cfg;
    const auto t = trace(workload::WorkloadSet::C,
                         workload::QosLevel::Medium, 120);
    const auto r = runScenario("moca", t, cfg);
    EXPECT_GE(r.metrics.slaRateHigh, r.metrics.slaRateLow);
}

/** A matrix cell holding one SLA rate per policy, without running it. */
MatrixCell
slaCell(const std::vector<std::pair<std::string, double>> &slas)
{
    MatrixCell cell;
    cell.set = workload::WorkloadSet::A;
    cell.qos = workload::QosLevel::Light;
    for (const auto &[spec, sla] : slas) {
        ScenarioResult r;
        r.policy = spec;
        r.metrics.slaRate = sla;
        cell.byPolicy.push_back(r);
    }
    return cell;
}

TEST(Matrix, CellsFollowGridAndPolicyOrder)
{
    MatrixConfig mcfg;
    mcfg.numTasks = 4;
    mcfg.policies = {"moca", "prema"}; // not the registry's order
    const auto matrix = runMatrix(mcfg, sim::SocConfig(), SweepOptions());
    ASSERT_EQ(matrix.size(), matrixCells().size());
    for (std::size_t c = 0; c < matrix.size(); ++c) {
        EXPECT_EQ(matrix[c].set, matrixCells()[c].first) << c;
        EXPECT_EQ(matrix[c].qos, matrixCells()[c].second) << c;
        ASSERT_EQ(matrix[c].byPolicy.size(), 2u) << c;
        for (std::size_t p = 0; p < 2; ++p) {
            const auto &r = matrix[c].byPolicy[p];
            EXPECT_EQ(r.policy, mcfg.policies[p]) << c;
            EXPECT_EQ(r.trace.set, matrix[c].set) << c;
            EXPECT_EQ(r.trace.qos, matrix[c].qos) << c;
            EXPECT_EQ(r.jobs.size(), 4u) << c;
        }
    }
}

TEST(Matrix, HasOnlySelectedPolicies)
{
    const MatrixCell cell = slaCell({{"moca", 0.5}, {"prema", 0.25}});
    EXPECT_TRUE(cell.has("moca"));
    EXPECT_TRUE(cell.has("prema"));
    EXPECT_FALSE(cell.has("static"));
    EXPECT_DOUBLE_EQ(cell.result("prema").metrics.slaRate, 0.25);
}

TEST(MatrixDeathTest, ResultOfAbsentPolicyIsFatal)
{
    const MatrixCell cell = slaCell({{"moca", 0.5}});
    EXPECT_DEATH(cell.result("static"), "no result for policy 'static'");
}

TEST(Matrix, MarginFloorsBothSides)
{
    // A zero SLA on either side is floored, so the margin stays a
    // finite, positive number instead of a 0 or inf ratio.
    const std::vector<MatrixCell> matrix = {
        slaCell({{"moca", 0.0}, {"prema", 0.5}}),
        slaCell({{"moca", 0.4}, {"prema", 0.2}}),
        slaCell({{"moca", 0.0}, {"prema", 0.0}}),
    };
    const Margin m = marginOver(matrix, "moca", "prema",
                                &metrics::RunMetrics::slaRate, 1e-3);
    EXPECT_TRUE(std::isfinite(m.geomean));
    EXPECT_GT(m.geomean, 0.0);
    EXPECT_NEAR(m.geomean, std::cbrt(1e-3 / 0.5 * 2.0 * 1.0), 1e-12);
    EXPECT_DOUBLE_EQ(m.max, 2.0);
}

} // namespace
} // namespace moca::exp
