/**
 * @file
 * Cluster fleet simulator tests: dispatcher registry grammar and
 * did-you-mean errors, built-in placement strategies, open-loop
 * workload synthesis determinism, the Soc resumable-stepping API, the
 * cluster(1)+rr == single-SoC equivalence contract, and bit-identical
 * cluster determinism across runs and worker counts.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/workload.h"
#include "exp/oracle.h"
#include "exp/scenario.h"
#include "exp/sweep/sweep.h"
#include "sim/soc.h"

using namespace moca;
using cluster::ClusterConfig;
using cluster::ClusterResult;
using cluster::ClusterTask;
using cluster::DispatcherRegistry;
using cluster::SocLoad;
using cluster::SynthConfig;

namespace {

sim::SocConfig
testSoc(sim::SimKernel kernel = sim::SimKernel::Quantum)
{
    sim::SocConfig cfg;
    cfg.kernel = kernel;
    return cfg;
}

workload::TraceConfig
testTrace(int tasks, std::uint64_t seed)
{
    workload::TraceConfig tc;
    tc.set = workload::WorkloadSet::A;
    tc.qos = workload::QosLevel::Medium;
    tc.numTasks = tasks;
    tc.seed = seed;
    return tc;
}

SynthConfig
testSynth(int tasks, int fleet_tiles, std::uint64_t seed)
{
    SynthConfig synth;
    synth.numTasks = tasks;
    synth.set = workload::WorkloadSet::A;
    synth.fleetTiles = fleet_tiles;
    synth.seed = seed;
    return synth;
}

std::vector<ClusterTask>
synthTasks(const SynthConfig &synth, const sim::SocConfig &cfg)
{
    return cluster::synthesizeTasks(synth, [&](dnn::ModelId id) {
        return exp::isolatedLatency(id, 1, cfg);
    });
}

/** Field-by-field exact comparison of two cluster results. */
void
expectIdentical(const ClusterResult &a, const ClusterResult &b)
{
    EXPECT_EQ(a.numTasks, b.numTasks);
    EXPECT_EQ(a.slaRate, b.slaRate);
    EXPECT_EQ(a.slaRateHigh, b.slaRateHigh);
    EXPECT_EQ(a.latency.p50, b.latency.p50);
    EXPECT_EQ(a.latency.p95, b.latency.p95);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.normLatency.p99, b.normLatency.p99);
    EXPECT_EQ(a.stp, b.stp);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.balanceCv, b.balanceCv);
    EXPECT_EQ(a.simSteps, b.simSteps);
    ASSERT_EQ(a.perSoc.size(), b.perSoc.size());
    for (std::size_t i = 0; i < a.perSoc.size(); ++i) {
        EXPECT_EQ(a.perSoc[i].tasks, b.perSoc[i].tasks);
        EXPECT_EQ(a.perSoc[i].makespan, b.perSoc[i].makespan);
        EXPECT_EQ(a.perSoc[i].metrics.slaRate,
                  b.perSoc[i].metrics.slaRate);
        EXPECT_EQ(a.perSoc[i].metrics.stp, b.perSoc[i].metrics.stp);
    }
}

} // namespace

// --- Dispatcher registry ----------------------------------------------

TEST(DispatcherRegistry, BuiltinsRegisteredInOrder)
{
    const auto names = DispatcherRegistry::instance().names();
    const std::vector<std::string> expected = {
        "rr", "random", "least-loaded", "p2c", "qos-aware"};
    ASSERT_GE(names.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(names[i], expected[i]);
    for (const auto &name : expected)
        EXPECT_TRUE(DispatcherRegistry::instance().contains(name));
}

TEST(DispatcherRegistry, UnknownNameDiesWithSuggestion)
{
    EXPECT_DEATH(
        DispatcherRegistry::instance().validate("leest-loaded"),
        "did you mean 'least-loaded'");
    EXPECT_DEATH(DispatcherRegistry::instance().validate("nonsense"),
                 "known dispatchers: rr, random, least-loaded, p2c, "
                 "qos-aware");
}

TEST(DispatcherRegistry, UnknownParamDiesListingSchema)
{
    EXPECT_DEATH(
        DispatcherRegistry::instance().validate("rr:bogus=1"),
        "no parameter 'bogus'");
    EXPECT_DEATH(
        DispatcherRegistry::instance().validate("qos-aware:by=depth"),
        "declared parameters: prio_min, hard_qos");
    EXPECT_DEATH(
        (void)DispatcherRegistry::instance().make(
            "least-loaded:by=queue", 4, 1),
        "expected depth or work");
    // validate() rejects bad parameter *values* up front too (no
    // SoC-configuration dependence, unlike policy specs).
    EXPECT_DEATH(
        DispatcherRegistry::instance().validate(
            "least-loaded:by=depht"),
        "expected depth or work");
}

TEST(DispatcherRegistry, ListTextMentionsEveryBuiltin)
{
    const std::string text =
        DispatcherRegistry::instance().listText();
    for (const auto &name : DispatcherRegistry::instance().names())
        EXPECT_NE(text.find(name), std::string::npos) << name;
}

// --- Built-in placement strategies ------------------------------------

namespace {

std::vector<SocLoad>
uniformLoads(int n)
{
    std::vector<SocLoad> loads(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        loads[static_cast<std::size_t>(i)].socIdx = i;
        loads[static_cast<std::size_t>(i)].numTiles = 8;
        loads[static_cast<std::size_t>(i)].freeTiles = 8;
    }
    return loads;
}

ClusterTask
taskWithPriority(int priority)
{
    ClusterTask t;
    t.priority = priority;
    return t;
}

} // namespace

TEST(Dispatchers, RoundRobinCycles)
{
    auto d = DispatcherRegistry::instance().make("rr", 3, 1);
    const auto loads = uniformLoads(3);
    const ClusterTask t;
    EXPECT_EQ(d->place(t, loads), 0);
    EXPECT_EQ(d->place(t, loads), 1);
    EXPECT_EQ(d->place(t, loads), 2);
    EXPECT_EQ(d->place(t, loads), 0);
}

TEST(Dispatchers, LeastLoadedPicksShortestQueue)
{
    auto d = DispatcherRegistry::instance().make("least-loaded", 3, 1);
    auto loads = uniformLoads(3);
    loads[0].waiting = 4;
    loads[1].waiting = 1;
    loads[2].waiting = 2;
    EXPECT_EQ(d->place(ClusterTask(), loads), 1);
    // Ties break toward the lower index.
    loads[1].waiting = 2;
    EXPECT_EQ(d->place(ClusterTask(), loads), 1);
    loads[1].waiting = 9;
    loads[2].waiting = 9;
    loads[0].waiting = 9;
    EXPECT_EQ(d->place(ClusterTask(), loads), 0);
}

TEST(Dispatchers, LeastLoadedByWorkUsesMacs)
{
    auto d = DispatcherRegistry::instance().make(
        "least-loaded:by=work", 2, 1);
    auto loads = uniformLoads(2);
    loads[0].waiting = 0;
    loads[0].outstandingMacs = 5e9;
    loads[1].waiting = 7; // Deeper queue but less work.
    loads[1].outstandingMacs = 1e9;
    EXPECT_EQ(d->place(ClusterTask(), loads), 1);
}

TEST(Dispatchers, PowerOfTwoIsSeededAndDeterministic)
{
    auto loads = uniformLoads(8);
    auto a = DispatcherRegistry::instance().make("p2c", 8, 42);
    auto b = DispatcherRegistry::instance().make("p2c", 8, 42);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a->place(ClusterTask(), loads),
                  b->place(ClusterTask(), loads));
}

TEST(Dispatchers, QosAwareRoutesCriticalToLeastContended)
{
    auto d = DispatcherRegistry::instance().make("qos-aware", 3, 1);
    auto loads = uniformLoads(3);
    loads[0].running = 4;
    loads[1].running = 1;
    loads[2].running = 3;
    // Critical (p-High) tasks go to the fewest co-runners...
    EXPECT_EQ(d->place(taskWithPriority(11), loads), 1);
    EXPECT_EQ(d->place(taskWithPriority(9), loads), 1);
    // ... bulk traffic round-robins regardless of load.
    EXPECT_EQ(d->place(taskWithPriority(0), loads), 0);
    EXPECT_EQ(d->place(taskWithPriority(3), loads), 1);
    EXPECT_EQ(d->place(taskWithPriority(0), loads), 2);
}

// --- Open-loop workload synthesis -------------------------------------

TEST(ClusterWorkload, SynthesisIsDeterministic)
{
    const sim::SocConfig cfg = testSoc();
    for (const auto process :
         {cluster::ArrivalProcess::Poisson,
          cluster::ArrivalProcess::Mmpp,
          cluster::ArrivalProcess::Diurnal}) {
        SynthConfig synth = testSynth(500, 32, 7);
        synth.process = process;
        const auto a = synthTasks(synth, cfg);
        const auto b = synthTasks(synth, cfg);
        ASSERT_EQ(a.size(), 500u);
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].arrival, b[i].arrival);
            EXPECT_EQ(a[i].model, b[i].model);
            EXPECT_EQ(a[i].priority, b[i].priority);
            EXPECT_EQ(a[i].qos, b[i].qos);
            EXPECT_EQ(a[i].slaLatency, b[i].slaLatency);
        }
    }
}

TEST(ClusterWorkload, TasksAreSortedWithDenseIds)
{
    const sim::SocConfig cfg = testSoc();
    SynthConfig synth = testSynth(300, 16, 3);
    synth.process = cluster::ArrivalProcess::Mmpp;
    const auto tasks = synthTasks(synth, cfg);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(tasks[i].id, static_cast<int>(i));
        if (i > 0) {
            EXPECT_GE(tasks[i].arrival, tasks[i - 1].arrival);
        }
    }
}

TEST(ClusterWorkload, QosSharesAreRespected)
{
    const sim::SocConfig cfg = testSoc();
    SynthConfig synth = testSynth(200, 16, 3);
    synth.qosLightShare = 1.0;
    synth.qosMediumShare = 0.0;
    synth.qosHardShare = 0.0;
    for (const auto &t : synthTasks(synth, cfg))
        EXPECT_EQ(t.qos, workload::QosLevel::Light);
}

TEST(ClusterWorkload, ProcessesShapeArrivals)
{
    // Same seed, same rate: the three processes must produce
    // different streams, and MMPP must be burstier than Poisson
    // (higher squared coefficient of variation of inter-arrivals).
    const sim::SocConfig cfg = testSoc();
    SynthConfig synth = testSynth(2000, 16, 11);
    const auto poisson = synthTasks(synth, cfg);
    synth.process = cluster::ArrivalProcess::Mmpp;
    const auto mmpp = synthTasks(synth, cfg);

    const auto gaps = [](const std::vector<ClusterTask> &tasks) {
        StatAccum acc;
        for (std::size_t i = 1; i < tasks.size(); ++i)
            acc.add(static_cast<double>(tasks[i].arrival -
                                        tasks[i - 1].arrival));
        return acc;
    };
    const auto cv2 = [](const StatAccum &acc) {
        return acc.variance() / (acc.mean() * acc.mean());
    };
    const StatAccum pg = gaps(poisson), mg = gaps(mmpp);
    EXPECT_GT(cv2(mg), 1.5 * cv2(pg));
    // ... while the long-run rate stays calibrated to the load
    // factor (the burst state borrows rate from the base state).
    EXPECT_NEAR(mg.mean(), pg.mean(), 0.15 * pg.mean());

    // burstDuty=0 disables bursts outright: plain Poisson at the
    // calibrated rate, not a permanently-boosted stream.
    synth.burstDuty = 0.0;
    const StatAccum ng = gaps(synthTasks(synth, cfg));
    EXPECT_NEAR(ng.mean(), pg.mean(), 0.15 * pg.mean());
    EXPECT_LT(cv2(ng), 1.3);
}

// --- Soc resumable stepping -------------------------------------------

TEST(SocStepping, HorizonBoundsTimeAndInjectionResumes)
{
    const sim::SocConfig cfg = testSoc();
    exp::SoloPolicy policy(cfg.numTiles);
    sim::Soc soc(cfg, policy);

    const dnn::Model &model = dnn::getModel(dnn::ModelId::Kws);
    sim::JobSpec spec;
    spec.id = 0;
    spec.model = &model;
    spec.dispatch = 0;
    soc.addJob(spec);

    soc.beginRun();
    const Cycles horizon = 10'000;
    soc.advanceTo(horizon);
    // The SoC stops at its last step boundary at or before the
    // horizon, and parks the step that would cross it.
    EXPECT_LE(soc.now(), horizon);
    ASSERT_FALSE(soc.done());
    EXPECT_FALSE(soc.behind(horizon));

    // Inject a second job mid-run at the exact horizon cycle: the
    // parked step now ends there.
    spec.id = 1;
    spec.dispatch = horizon;
    soc.injectJob(spec);
    EXPECT_FALSE(soc.behind(horizon - 1));
    EXPECT_TRUE(soc.behind(horizon));
    soc.advanceTo(sim::kNoHorizon);
    soc.finishRun();

    ASSERT_EQ(soc.results().size(), 2u);
    EXPECT_GE(soc.results()[1].firstStart, horizon);
}

TEST(SocStepping, MisuseDies)
{
    const sim::SocConfig cfg = testSoc();
    exp::SoloPolicy policy(cfg.numTiles);
    sim::Soc soc(cfg, policy);
    sim::JobSpec spec;
    spec.id = 0;
    spec.model = &dnn::getModel(dnn::ModelId::Kws);
    EXPECT_DEATH(soc.advanceTo(sim::kNoHorizon), "before beginRun");
    EXPECT_DEATH(soc.injectJob(spec), "before beginRun");
}

// --- cluster(1) + rr == the single-SoC scenario path ------------------

TEST(ClusterEquivalence, OneSocRrReproducesSingleSocMetrics)
{
    for (const auto kernel :
         {sim::SimKernel::Quantum, sim::SimKernel::Event}) {
        for (const std::string policy : {"moca", "prema"}) {
            const sim::SocConfig cfg = testSoc(kernel);
            const workload::TraceConfig tc = testTrace(40, 5);
            const auto stream = exp::makeTrace(tc, cfg);
            const auto single =
                exp::runTrace(policy, stream, tc, cfg);

            ClusterConfig cc = ClusterConfig::homogeneous(1, cfg);
            cc.policy = policy;
            cc.dispatcher = "rr";
            const auto fleet = cluster::runCluster(
                cc, cluster::tasksFromJobSpecs(stream));

            // Metric-identical, not merely close: the cluster loop
            // must replay the very same kernel steps.
            EXPECT_EQ(fleet.perSoc[0].metrics.slaRate,
                      single.metrics.slaRate)
                << policy << " " << simKernelName(kernel);
            EXPECT_EQ(fleet.perSoc[0].metrics.stp,
                      single.metrics.stp);
            EXPECT_EQ(fleet.perSoc[0].metrics.fairness,
                      single.metrics.fairness);
            EXPECT_EQ(fleet.perSoc[0].metrics.meanNormLatency,
                      single.metrics.meanNormLatency);
            EXPECT_EQ(fleet.makespan, single.makespan);
            EXPECT_EQ(fleet.simSteps, single.simSteps);
            EXPECT_EQ(fleet.slaRate, single.metrics.slaRate);
        }
    }
}

// --- Cluster determinism ----------------------------------------------

TEST(ClusterDeterminism, RepeatedRunsAreBitIdentical)
{
    const sim::SocConfig cfg = testSoc(sim::SimKernel::Event);
    const auto tasks = synthTasks(testSynth(300, 4 * 8, 21), cfg);
    for (const std::string dispatcher :
         {"rr", "random", "least-loaded", "p2c", "qos-aware"}) {
        ClusterConfig cc = ClusterConfig::homogeneous(4, cfg);
        cc.policy = "moca";
        cc.dispatcher = dispatcher;
        cc.dispatcherSeed = 9;
        const auto a = cluster::runCluster(cc, tasks);
        const auto b = cluster::runCluster(cc, tasks);
        expectIdentical(a, b);
    }
}

TEST(ClusterDeterminism, FleetExperimentIdenticalAcrossJobs)
{
    // One fleet per policy on the identical task stream, run on a
    // jobs=1 vs jobs=4 pool (the cluster_scale --jobs shape): the
    // policy-level parallelism must not perturb any fleet result.
    const sim::SocConfig cfg = testSoc(sim::SimKernel::Event);
    const SynthConfig synth = testSynth(250, 4 * cfg.numTiles, 17);
    const auto tasks = synthTasks(synth, cfg);
    const std::vector<std::string> policies = {"moca", "prema",
                                               "planaria"};
    const auto run = [&](int jobs) {
        std::vector<ClusterResult> results(policies.size());
        exp::SweepRunner::runIndexed(
            policies.size(), jobs, [&](std::size_t i) {
                ClusterConfig cc = ClusterConfig::homogeneous(4, cfg);
                cc.policy = policies[i];
                cc.dispatcher = "least-loaded";
                cc.dispatcherSeed = synth.seed;
                results[i] = cluster::runCluster(cc, tasks);
            });
        return results;
    };
    const auto serial = run(1);
    const auto parallel = run(4);
    for (std::size_t i = 0; i < policies.size(); ++i) {
        SCOPED_TRACE(policies[i]);
        expectIdentical(serial[i], parallel[i]);
    }
}

// --- Fleet behaviour --------------------------------------------------

TEST(Cluster, FleetCompletesAllTasksAndBalances)
{
    const sim::SocConfig cfg = testSoc(sim::SimKernel::Event);
    const auto tasks = synthTasks(testSynth(200, 4 * 8, 13), cfg);
    ClusterConfig cc = ClusterConfig::homogeneous(4, cfg);
    cc.policy = "moca";
    cc.dispatcher = "rr";
    const auto res = cluster::runCluster(cc, tasks);

    EXPECT_EQ(res.numSocs, 4);
    EXPECT_EQ(res.numTasks, 200u);
    int placed = 0;
    for (const auto &share : res.perSoc)
        placed += share.tasks;
    EXPECT_EQ(placed, 200);
    // 200 tasks round-robin over 4 SoCs: exactly 50 each.
    for (const auto &share : res.perSoc)
        EXPECT_EQ(share.tasks, 50);
    EXPECT_EQ(res.balanceCv, 0.0);
    EXPECT_GE(res.slaRate, 0.0);
    EXPECT_LE(res.slaRate, 1.0);
    EXPECT_LE(res.latency.p50, res.latency.p95);
    EXPECT_LE(res.latency.p95, res.latency.p99);
    EXPECT_GT(res.stp, 0.0);
    EXPECT_GT(res.makespan, 0u);
}

TEST(Cluster, MoreSocsServeOpenLoopTrafficBetter)
{
    // The same 300-task stream offered to fleets of 2 and 8 SoCs:
    // the larger fleet must cut the p99 latency.
    const sim::SocConfig cfg = testSoc(sim::SimKernel::Event);
    SynthConfig synth = testSynth(300, 2 * 8, 19);
    const auto tasks = synthTasks(synth, cfg);

    const auto run = [&](int n) {
        ClusterConfig cc = ClusterConfig::homogeneous(n, cfg);
        cc.policy = "moca";
        cc.dispatcher = "least-loaded";
        return cluster::runCluster(cc, tasks);
    };
    const auto small = run(2);
    const auto big = run(8);
    EXPECT_LT(big.latency.p99, small.latency.p99);
    EXPECT_GE(big.slaRate, small.slaRate);
}

TEST(Cluster, HeterogeneousFleetRuns)
{
    const sim::SocConfig cfg = testSoc(sim::SimKernel::Event);
    sim::SocConfig small = cfg;
    small.numTiles = 4;
    ClusterConfig cc;
    cc.socs = {cfg, small};
    cc.policy = "moca";
    cc.dispatcher = "least-loaded";
    const auto tasks = synthTasks(testSynth(120, 12, 23), cfg);
    const auto res = cluster::runCluster(cc, tasks);
    EXPECT_EQ(res.numTasks, 120u);
    ASSERT_EQ(res.perSoc.size(), 2u);

    // Pinned values: each slot builds its SoC from, and normalizes by
    // the isolated latency of, its *own* config — normalizing the
    // 4-tile SoC by the 8-tile oracle would move every metric below.
    EXPECT_EQ(res.slaRate, 107.0 / 120.0);
    EXPECT_DOUBLE_EQ(res.stp, 58.693815151898647);
    EXPECT_DOUBLE_EQ(res.normLatency.p99, 10.048028095502932);
    EXPECT_EQ(res.perSoc[0].makespan, 27'069'120u);
    EXPECT_EQ(res.perSoc[1].makespan, 31'073'216u);
}

TEST(Cluster, UnsortedTasksDie)
{
    const sim::SocConfig cfg = testSoc();
    auto tasks = synthTasks(testSynth(10, 8, 3), cfg);
    std::swap(tasks.front().arrival, tasks.back().arrival);
    ClusterConfig cc = ClusterConfig::homogeneous(2, cfg);
    EXPECT_DEATH((void)cluster::runCluster(cc, tasks),
                 "sorted by arrival");
}
