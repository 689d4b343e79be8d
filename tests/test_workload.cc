/**
 * @file
 * Unit tests for the workload generator: QoS multipliers, workload
 * sets, the set and QoS-level names, the priority distribution and
 * grouping, trace determinism, arrival-rate calibration, and
 * SLA-target derivation.
 */

#include <gtest/gtest.h>

#include "workload/workload.h"

namespace moca::workload {
namespace {

Cycles
fakeIso(dnn::ModelId id)
{
    // Deterministic fake isolated latencies (cycles).
    return 1'000'000 + 100'000 * static_cast<Cycles>(id);
}

TEST(Workload, QosMultipliers)
{
    EXPECT_DOUBLE_EQ(qosMultiplier(QosLevel::Light), 1.2);
    EXPECT_DOUBLE_EQ(qosMultiplier(QosLevel::Medium), 1.0);
    EXPECT_DOUBLE_EQ(qosMultiplier(QosLevel::Hard), 0.8);
}

TEST(Workload, SetsMatchTableIII)
{
    EXPECT_EQ(workloadSetModels(WorkloadSet::A).size(), 3u);
    EXPECT_EQ(workloadSetModels(WorkloadSet::B).size(), 4u);
    EXPECT_EQ(workloadSetModels(WorkloadSet::C).size(), 7u);
}

TEST(Workload, NamesMapToSetsAndQosLevels)
{
    EXPECT_EQ(workloadSetFromName("a"), WorkloadSet::A);
    EXPECT_EQ(workloadSetFromName("b"), WorkloadSet::B);
    EXPECT_EQ(workloadSetFromName("c"), WorkloadSet::C);
    EXPECT_EQ(qosLevelFromName("l"), QosLevel::Light);
    EXPECT_EQ(qosLevelFromName("m"), QosLevel::Medium);
    EXPECT_EQ(qosLevelFromName("h"), QosLevel::Hard);
}

TEST(WorkloadDeathTest, UnknownNamesAreFatal)
{
    EXPECT_DEATH(workloadSetFromName("d"),
                 "unknown workload set 'd'; expected a, b, or c");
    EXPECT_DEATH(workloadSetFromName("C"), "unknown workload set");
    EXPECT_DEATH(qosLevelFromName("x"),
                 "unknown QoS level 'x'; expected l, m, or h");
}

TEST(Workload, PriorityWeightsCoverAllLevels)
{
    const auto &w = priorityWeights();
    ASSERT_EQ(w.size(), 12u);
    for (double v : w)
        EXPECT_GT(v, 0.0);
    // Low-priority mass dominates (Google-trace shape).
    EXPECT_GT(w[0], w[11]);
}

TEST(Workload, PriorityGrouping)
{
    EXPECT_EQ(priorityGroup(0), PriorityGroup::Low);
    EXPECT_EQ(priorityGroup(2), PriorityGroup::Low);
    EXPECT_EQ(priorityGroup(3), PriorityGroup::Mid);
    EXPECT_EQ(priorityGroup(8), PriorityGroup::Mid);
    EXPECT_EQ(priorityGroup(9), PriorityGroup::High);
    EXPECT_EQ(priorityGroup(11), PriorityGroup::High);
}

TEST(Workload, TraceDeterministicPerSeed)
{
    TraceConfig cfg;
    cfg.numTasks = 50;
    cfg.seed = 42;
    const auto a = generateTrace(cfg, fakeIso);
    const auto b = generateTrace(cfg, fakeIso);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].dispatch, b[i].dispatch);
        EXPECT_EQ(a[i].priority, b[i].priority);
        EXPECT_EQ(a[i].model, b[i].model);
        EXPECT_EQ(a[i].slaLatency, b[i].slaLatency);
    }
    cfg.seed = 43;
    const auto c = generateTrace(cfg, fakeIso);
    int diffs = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        diffs += a[i].dispatch != c[i].dispatch;
    EXPECT_GT(diffs, 10);
}

TEST(Workload, DispatchTimesMonotone)
{
    TraceConfig cfg;
    cfg.numTasks = 100;
    const auto trace = generateTrace(cfg, fakeIso);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].dispatch, trace[i - 1].dispatch);
}

TEST(Workload, ArrivalRateMatchesLoadFactor)
{
    TraceConfig cfg;
    cfg.numTasks = 4000;
    cfg.set = WorkloadSet::A;
    cfg.loadFactor = 1.0;
    cfg.numTiles = 8;
    const auto trace = generateTrace(cfg, fakeIso);

    double mean_iso = 0.0;
    for (dnn::ModelId id : workloadSetModels(WorkloadSet::A))
        mean_iso += static_cast<double>(fakeIso(id));
    mean_iso /= 3.0;

    const double expected_interarrival = mean_iso / 8.0;
    const double measured = static_cast<double>(
        trace.back().dispatch) / (cfg.numTasks - 1);
    EXPECT_NEAR(measured, expected_interarrival,
                expected_interarrival * 0.1);
}

TEST(Workload, SlaTargetScalesWithQos)
{
    TraceConfig cfg;
    cfg.numTasks = 200;
    cfg.qosScale = 4.0;
    cfg.qos = QosLevel::Hard;
    const auto hard = generateTrace(cfg, fakeIso);
    cfg.qos = QosLevel::Light;
    const auto light = generateTrace(cfg, fakeIso);
    for (std::size_t i = 0; i < hard.size(); ++i) {
        ASSERT_EQ(hard[i].model, light[i].model);
        EXPECT_NEAR(static_cast<double>(light[i].slaLatency) /
                        static_cast<double>(hard[i].slaLatency),
                    1.2 / 0.8, 0.01);
    }
}

TEST(Workload, SlaTargetProportionalToModelLatency)
{
    TraceConfig cfg;
    cfg.numTasks = 300;
    cfg.qosScale = 4.0;
    const auto trace = generateTrace(cfg, fakeIso);
    for (const auto &spec : trace) {
        const dnn::ModelId id =
            dnn::modelIdFromName(spec.model->name());
        EXPECT_NEAR(static_cast<double>(spec.slaLatency),
                    4.0 * static_cast<double>(fakeIso(id)),
                    2.0);
    }
}

TEST(Workload, PriorityDistributionSampled)
{
    TraceConfig cfg;
    cfg.numTasks = 20000;
    const auto trace = generateTrace(cfg, fakeIso);
    int counts[12] = {};
    for (const auto &spec : trace) {
        ASSERT_GE(spec.priority, 0);
        ASSERT_LE(spec.priority, 11);
        counts[spec.priority]++;
    }
    const auto &w = priorityWeights();
    double total_w = 0.0;
    for (double v : w)
        total_w += v;
    for (int p = 0; p < 12; ++p) {
        const double expected =
            w[static_cast<std::size_t>(p)] / total_w;
        const double got =
            counts[p] / static_cast<double>(cfg.numTasks);
        EXPECT_NEAR(got, expected, 0.02) << "priority " << p;
    }
}

TEST(Workload, ModelsDrawnFromRequestedSet)
{
    TraceConfig cfg;
    cfg.numTasks = 200;
    cfg.set = WorkloadSet::B;
    const auto trace = generateTrace(cfg, fakeIso);
    for (const auto &spec : trace)
        EXPECT_EQ(spec.model->size(), dnn::ModelSize::Heavy);
}

} // namespace
} // namespace moca::workload
