/**
 * @file
 * Conservative-PDES fleet engine tests (cluster/parallel.h): the
 * bit-identity contract between serial (jobs=1) and sharded (jobs=N)
 * cluster runs across fleet sizes, dispatchers, policies, and both
 * time-advance kernels; shard-count invariance; mid-run injection and
 * simultaneous-arrival (horizon-stall) ordering; the engine's no-op
 * check reading injected work without notice; epoch-statistic
 * consistency; and the jobs<1 misuse death paths.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/parallel.h"
#include "cluster/workload.h"
#include "dnn/model_zoo.h"
#include "exp/oracle.h"
#include "sim/soc.h"

using namespace moca;
using cluster::ClusterConfig;
using cluster::ClusterResult;
using cluster::ClusterTask;
using cluster::SynthConfig;

namespace {

sim::SocConfig
testSoc(sim::SimKernel kernel = sim::SimKernel::Event)
{
    sim::SocConfig cfg;
    cfg.kernel = kernel;
    return cfg;
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

/**
 * Field-by-field exact comparison — the PDES contract is bit-identity,
 * not tolerance.  Includes the epoch statistics: the horizon-stall
 * decision is an order-insensitive min over the whole fleet, so even
 * the engine's own bookkeeping must not depend on the shard count.
 */
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
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.horizonStalls, b.horizonStalls);
    EXPECT_EQ(a.meanSocsStepped, b.meanSocsStepped);
    ASSERT_EQ(a.perSoc.size(), b.perSoc.size());
    for (std::size_t i = 0; i < a.perSoc.size(); ++i) {
        EXPECT_EQ(a.perSoc[i].tasks, b.perSoc[i].tasks);
        EXPECT_EQ(a.perSoc[i].makespan, b.perSoc[i].makespan);
        EXPECT_EQ(a.perSoc[i].metrics.slaRate,
                  b.perSoc[i].metrics.slaRate);
        EXPECT_EQ(a.perSoc[i].metrics.stp, b.perSoc[i].metrics.stp);
        EXPECT_EQ(a.perSoc[i].metrics.fairness,
                  b.perSoc[i].metrics.fairness);
        EXPECT_EQ(a.perSoc[i].simSteps, b.perSoc[i].simSteps);
    }
}

ClusterResult
runWith(const sim::SocConfig &cfg, int socs, int jobs,
        const std::string &dispatcher, const std::string &policy,
        const std::vector<ClusterTask> &tasks)
{
    ClusterConfig cc = ClusterConfig::homogeneous(socs, cfg);
    cc.policy = policy;
    cc.dispatcher = dispatcher;
    cc.dispatcherSeed = 9;
    cc.jobs = jobs;
    return cluster::runCluster(cc, tasks);
}

} // namespace

// --- Serial vs sharded bit-identity -----------------------------------

TEST(ParallelCluster, ShardedMatchesSerialEverywhere)
{
    // The full contract grid: {1,4,16} SoCs x {rr, qos-aware} x
    // {moca, prema} on both kernels, --cluster-jobs 1 vs 4.  Every
    // field of every result must match exactly.
    for (const auto kernel :
         {sim::SimKernel::Quantum, sim::SimKernel::Event}) {
        const sim::SocConfig cfg = testSoc(kernel);
        for (const int socs : {1, 4, 16}) {
            const auto tasks = synthTasks(
                testSynth(12 * socs, socs * cfg.numTiles, 31), cfg);
            for (const std::string dispatcher : {"rr", "qos-aware"}) {
                for (const std::string policy : {"moca", "prema"}) {
                    const auto serial = runWith(
                        cfg, socs, 1, dispatcher, policy, tasks);
                    const auto sharded = runWith(
                        cfg, socs, 4, dispatcher, policy, tasks);
                    SCOPED_TRACE(simKernelName(kernel) +
                                 std::string(" socs=") +
                                 std::to_string(socs) + " " +
                                 dispatcher + " " + policy);
                    expectIdentical(serial, sharded);
                }
            }
        }
    }
}

TEST(ParallelCluster, ShardCountInvariance)
{
    // Uneven shard splits (3 workers over 8 SoCs), more workers than
    // SoCs (8 over 8), and a non-divisor count must all reproduce the
    // serial run — the partitioning must never leak into results.
    const sim::SocConfig cfg = testSoc();
    const auto tasks =
        synthTasks(testSynth(160, 8 * cfg.numTiles, 47), cfg);
    const auto serial =
        runWith(cfg, 8, 1, "least-loaded", "moca", tasks);
    for (const int jobs : {2, 3, 8}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        expectIdentical(
            serial, runWith(cfg, 8, jobs, "least-loaded", "moca",
                            tasks));
    }
}

// --- Mid-run injection and horizon stalls -----------------------------

TEST(ParallelCluster, SimultaneousArrivalsStallNotStep)
{
    // Groups of tasks sharing one arrival cycle exercise the
    // horizon-stall path: only the group's first task opens an epoch;
    // the rest see the fleet already at the horizon and must skip the
    // barrier outright (a provable no-op).  Ordering of the
    // injections within a group must still be preserved exactly.
    const sim::SocConfig cfg = testSoc();
    auto tasks = synthTasks(testSynth(90, 4 * cfg.numTiles, 7), cfg);
    for (std::size_t i = 0; i < tasks.size(); ++i)
        tasks[i].arrival = static_cast<Cycles>(i / 3) * 50'000;

    const auto serial = runWith(cfg, 4, 1, "rr", "moca", tasks);
    const auto sharded = runWith(cfg, 4, 3, "rr", "moca", tasks);
    expectIdentical(serial, sharded);

    // Each 3-task group stalls at least its 2 trailing arrivals (the
    // group at cycle 0 stalls all 3: no SoC is behind cycle 0).
    EXPECT_GE(serial.horizonStalls, 2 * (tasks.size() / 3));
    EXPECT_GT(serial.epochs, 0u);

    // Injection order within a group is the stream order: round-robin
    // placement of 90 tasks over 4 SoCs.
    int placed = 0;
    for (const auto &share : serial.perSoc)
        placed += share.tasks;
    EXPECT_EQ(placed, 90);
    EXPECT_GE(serial.perSoc[0].tasks, serial.perSoc[3].tasks);
}

TEST(ParallelCluster, MidRunInjectionKeepsDispatchCycles)
{
    // Every job must start at or after its exact arrival cycle even
    // when the injection lands mid-shard-advance — the barrier
    // guarantees the fleet is quiescent at the arrival horizon.
    const sim::SocConfig cfg = testSoc();
    const auto tasks =
        synthTasks(testSynth(120, 4 * cfg.numTiles, 13), cfg);
    ClusterConfig cc = ClusterConfig::homogeneous(4, cfg);
    cc.policy = "moca";
    cc.dispatcher = "least-loaded";
    cc.jobs = 3;
    const auto res = cluster::runCluster(cc, tasks);
    EXPECT_EQ(res.numTasks, 120u);
    std::size_t completed = 0;
    for (const auto &share : res.perSoc)
        completed += static_cast<std::size_t>(share.tasks);
    EXPECT_EQ(completed, 120u);
}

TEST(ParallelEngine, InjectionNeedsNoNotice)
{
    // The engine decides no-op epochs from the SoCs it holds, so a
    // job injected into an idle SoC between epochs makes the next
    // epoch run with no further call — and deactivating that SoC
    // makes the one after a stall again.
    const sim::SocConfig cfg = testSoc();
    exp::SoloPolicy p0(cfg.numTiles);
    exp::SoloPolicy p1(cfg.numTiles);
    sim::Soc soc0(cfg, p0);
    sim::Soc soc1(cfg, p1);
    soc0.beginRun();
    soc1.beginRun();
    cluster::ParallelEngine engine({&soc0, &soc1}, 2);

    engine.advanceFleet(10'000);
    EXPECT_EQ(engine.stats().epochs, 0u);
    EXPECT_EQ(engine.stats().horizonStalls, 1u);

    sim::JobSpec spec;
    spec.id = 0;
    spec.model = &dnn::getModel(dnn::ModelId::Kws);
    spec.dispatch = 10'000;
    spec.slaLatency = 1'000'000'000;
    soc1.injectJob(spec);
    ASSERT_EQ(soc1.now(), 0u);

    engine.advanceFleet(20'000);
    EXPECT_EQ(engine.stats().epochs, 1u);
    EXPECT_EQ(engine.stats().horizonStalls, 1u);
    EXPECT_EQ(soc1.now(), 20'000u);
    EXPECT_EQ(soc0.now(), 0u);

    engine.setActive(1, false);
    engine.advanceFleet(30'000);
    EXPECT_EQ(engine.stats().epochs, 1u);
    EXPECT_EQ(engine.stats().horizonStalls, 2u);
    EXPECT_EQ(soc1.now(), 20'000u);
}

// --- Epoch statistics -------------------------------------------------

TEST(ParallelCluster, EpochStatsAreBoundedAndPopulated)
{
    const sim::SocConfig cfg = testSoc();
    const auto tasks =
        synthTasks(testSynth(100, 4 * cfg.numTiles, 3), cfg);
    const auto res = runWith(cfg, 4, 2, "rr", "moca", tasks);

    // One advance per arrival plus the final drain, minus stalls.
    EXPECT_GT(res.epochs, 0u);
    EXPECT_LE(res.epochs + res.horizonStalls, tasks.size() + 1);
    EXPECT_GT(res.meanSocsStepped, 0.0);
    EXPECT_LE(res.meanSocsStepped, 4.0);
}

// --- Misuse -----------------------------------------------------------

TEST(ParallelClusterDeath, JobsBelowOneDies)
{
    const sim::SocConfig cfg = testSoc();
    const auto tasks = synthTasks(testSynth(5, 8, 3), cfg);
    ClusterConfig cc = ClusterConfig::homogeneous(2, cfg);
    cc.jobs = 0;
    EXPECT_DEATH((void)cluster::runCluster(cc, tasks),
                 "jobs must be >= 1");
    cc.jobs = -3;
    EXPECT_DEATH((void)cluster::runCluster(cc, tasks),
                 "jobs must be >= 1");
}
