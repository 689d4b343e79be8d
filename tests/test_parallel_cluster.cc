/**
 * @file
 * Conservative-PDES fleet engine tests (cluster/parallel.h): the
 * bit-identity contract between serial (jobs=1) and sharded (jobs=N)
 * cluster runs across fleet sizes, dispatchers, policies, and both
 * time-advance kernels; every fleet SoC against its jobs run alone;
 * shard-count invariance; mid-run injection and
 * simultaneous-arrival (horizon-stall) ordering; the engine's no-op
 * check reading injected work without notice; epoch-statistic
 * consistency; the replayed stream of a dispatcher that reads no SoC
 * against the same stream barriered per arrival; and the jobs<1
 * misuse death paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "cluster/cluster.h"
#include "cluster/parallel.h"
#include "cluster/workload.h"
#include "dnn/model_zoo.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "obs/capture.h"
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
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.numSocs, b.numSocs);
    EXPECT_EQ(a.numTasks, b.numTasks);
    EXPECT_EQ(a.slaRate, b.slaRate);
    EXPECT_EQ(a.slaRateHigh, b.slaRateHigh);
    EXPECT_EQ(a.latency.p50, b.latency.p50);
    EXPECT_EQ(a.latency.p95, b.latency.p95);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.normLatency.p50, b.normLatency.p50);
    EXPECT_EQ(a.normLatency.p95, b.normLatency.p95);
    EXPECT_EQ(a.normLatency.p99, b.normLatency.p99);
    EXPECT_EQ(a.stp, b.stp);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.goodput, b.goodput);
    EXPECT_EQ(a.shedRate, b.shedRate);
    EXPECT_EQ(a.retryRate, b.retryRate);
    EXPECT_EQ(a.timeoutRate, b.timeoutRate);
    EXPECT_EQ(a.balanceCv, b.balanceCv);
    EXPECT_EQ(a.simSteps, b.simSteps);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.horizonStalls, b.horizonStalls);
    EXPECT_EQ(a.meanSocsStepped, b.meanSocsStepped);
    ASSERT_EQ(a.perSoc.size(), b.perSoc.size());
    for (std::size_t i = 0; i < a.perSoc.size(); ++i) {
        EXPECT_EQ(a.perSoc[i].tasks, b.perSoc[i].tasks);
        EXPECT_EQ(a.perSoc[i].makespan, b.perSoc[i].makespan);
        const metrics::RunMetrics &ma = a.perSoc[i].metrics;
        const metrics::RunMetrics &mb = b.perSoc[i].metrics;
        EXPECT_EQ(ma.slaRate, mb.slaRate);
        EXPECT_EQ(ma.slaRateLow, mb.slaRateLow);
        EXPECT_EQ(ma.slaRateMid, mb.slaRateMid);
        EXPECT_EQ(ma.slaRateHigh, mb.slaRateHigh);
        EXPECT_EQ(ma.stp, mb.stp);
        EXPECT_EQ(ma.fairness, mb.fairness);
        EXPECT_EQ(ma.meanNormLatency, mb.meanNormLatency);
        EXPECT_EQ(ma.worstNormLatency, mb.worstNormLatency);
        EXPECT_EQ(ma.numJobs, mb.numJobs);
        EXPECT_EQ(a.perSoc[i].dramBusyFraction,
                  b.perSoc[i].dramBusyFraction);
        EXPECT_EQ(a.perSoc[i].simSteps, b.perSoc[i].simSteps);
    }
}

/** A test-only wrapper, like a timing or logging wrapper: it forwards
 *  place() but keeps the default readsLoad(), so a stream under it
 *  barriers once per arrival even when the inner dispatcher reads no
 *  SoC. */
class BarrieredDispatcher : public cluster::Dispatcher
{
  public:
    explicit BarrieredDispatcher(std::unique_ptr<cluster::Dispatcher> inner)
        : inner_(std::move(inner))
    {
    }

    const char *name() const override { return "barriered"; }

    int
    place(const ClusterTask &task,
          const std::vector<cluster::SocLoad> &socs) override
    {
        return inner_->place(task, socs);
    }

  private:
    std::unique_ptr<cluster::Dispatcher> inner_;
};

const cluster::DispatcherRegistrar kBarriered({
    "barriered",
    "test-only: another dispatcher, barriered once per arrival",
    {{"of", "spec", "rr", "the wrapped dispatcher"}},
    [](int socs, std::uint64_t seed, const cluster::DispatcherSpec &spec) {
        return std::make_unique<BarrieredDispatcher>(
            cluster::DispatcherRegistry::instance().make(
                spec.param("of", "rr"), socs, seed));
    },
});

/** Completed jobs per fleet slot (socId), in completion order, as the
 *  test-only `recorded` policy saw them.  Each slot's SoC runs on one
 *  worker; the mutex orders the table across workers. */
std::mutex g_recorded_mu;
std::map<int, std::vector<sim::JobResult>> g_recorded;

/** A transparent wrapper around MoCA that records every JobResult
 *  (spec included) its SoC completes. */
class RecordedPolicy : public sim::Policy
{
  public:
    explicit RecordedPolicy(std::unique_ptr<sim::Policy> inner)
        : inner_(std::move(inner))
    {
    }

    const char *name() const override { return "recorded"; }

    void schedule(sim::Soc &soc, sim::SchedEvent event) override
    {
        inner_->schedule(soc, event);
    }

    void onBlockBoundary(sim::Soc &soc, int id) override
    {
        inner_->onBlockBoundary(soc, id);
    }

    void onJobComplete(sim::Soc &soc, int id) override
    {
        inner_->onJobComplete(soc, id);
        // The SoC appends a job's result just before this hook.
        ASSERT_EQ(soc.results().back().spec.id, id);
        std::lock_guard<std::mutex> lock(g_recorded_mu);
        g_recorded[soc.config().socId].push_back(soc.results().back());
    }

  private:
    std::unique_ptr<sim::Policy> inner_;
};

const exp::PolicyRegistrar kRecorded({
    "recorded", "test-only: moca, recording every completed job", {},
    [](const sim::SocConfig &cfg, const exp::PolicySpec &) {
        return std::unique_ptr<sim::Policy>(new RecordedPolicy(
            exp::PolicyRegistry::instance().make("moca", cfg)));
    }});

/** One profiled cluster run and everything its capture recorded. */
struct Captured
{
    ClusterResult result;
    obs::Capture capture;
};

Captured
runCaptured(const sim::SocConfig &cfg, int socs, int jobs,
            const std::string &dispatcher,
            const std::vector<ClusterTask> &tasks)
{
    Captured out;
    ClusterConfig cc = ClusterConfig::homogeneous(socs, cfg);
    cc.policy = "moca";
    cc.dispatcher = dispatcher;
    cc.dispatcherSeed = 9;
    cc.jobs = jobs;
    cc.profile = true;
    cc.capture = &out.capture;
    out.result = cluster::runCluster(cc, tasks);
    return out;
}

/** Epoch spans, SoC trace events and sampled series, exactly. */
void
expectSameCapture(const obs::Capture &a, const obs::Capture &b)
{
    EXPECT_TRUE(std::equal(
        a.epochs.begin(), a.epochs.end(), b.epochs.begin(),
        b.epochs.end(), [](const obs::EpochSpan &x, const obs::EpochSpan &y) {
            return x.begin == y.begin && x.end == y.end &&
                x.socsStepped == y.socsStepped && x.stall == y.stall;
        }));
    EXPECT_TRUE(std::equal(
        a.socEvents.begin(), a.socEvents.end(), b.socEvents.begin(),
        b.socEvents.end(),
        [](const sim::TraceEvent &x, const sim::TraceEvent &y) {
            return x.cycle == y.cycle && x.kind == y.kind &&
                x.jobId == y.jobId && x.value == y.value &&
                x.socId == y.socId;
        }));
    EXPECT_FALSE(a.socEvents.empty());
    ASSERT_EQ(a.socSeries.size(), b.socSeries.size());
    for (std::size_t i = 0; i < a.socSeries.size(); ++i) {
        EXPECT_EQ(a.socSeries[i].columns, b.socSeries[i].columns);
        EXPECT_TRUE(std::equal(
            a.socSeries[i].rows.begin(), a.socSeries[i].rows.end(),
            b.socSeries[i].rows.begin(), b.socSeries[i].rows.end(),
            [](const obs::Timeseries::Row &x,
               const obs::Timeseries::Row &y) {
                return x.at == y.at && x.values == y.values;
            }));
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

TEST(ParallelCluster, FleetSocMatchesItsStandaloneRun)
{
    // A fleet SoC simulates exactly what its own jobs simulate alone:
    // the fleet's horizons (every other SoC's arrivals) never cut its
    // steps.  Each SoC's jobs, recorded with their specs as the fleet
    // completes them, are run alone with addJob + run(); the results
    // and the step count must match bit for bit.  Load-blind (rr,
    // replayed) and load-reading (p2c, least-loaded: one barrier per
    // arrival) dispatchers, both kernels, 1 and 4 PDES workers.
    constexpr int kSocs = 4;
    for (const auto kernel :
         {sim::SimKernel::Quantum, sim::SimKernel::Event}) {
        const sim::SocConfig cfg = testSoc(kernel);
        SynthConfig synth = testSynth(8 * kSocs, kSocs * cfg.numTiles, 41);
        synth.set = workload::WorkloadSet::C;
        const auto tasks = synthTasks(synth, cfg);
        for (const std::string dispatcher : {"rr", "p2c", "least-loaded"}) {
            for (const int jobs : {1, 4}) {
                SCOPED_TRACE(simKernelName(kernel) + std::string(" ") +
                             dispatcher + " jobs=" + std::to_string(jobs));
                g_recorded.clear();
                const ClusterResult fleet = runWith(
                    cfg, kSocs, jobs, dispatcher, "recorded", tasks);
                ASSERT_EQ(g_recorded.size(), std::size_t{kSocs});
                for (int s = 0; s < kSocs; ++s) {
                    SCOPED_TRACE("soc " + std::to_string(s));
                    const std::vector<sim::JobResult> &got = g_recorded[s];
                    std::vector<sim::JobSpec> specs;
                    for (const sim::JobResult &r : got)
                        specs.push_back(r.spec);
                    std::sort(specs.begin(), specs.end(),
                              [](const sim::JobSpec &a,
                                 const sim::JobSpec &b) {
                                  return a.id < b.id;
                              });
                    const auto policy =
                        exp::PolicyRegistry::instance().make("moca", cfg);
                    sim::Soc solo(cfg, *policy);
                    for (const sim::JobSpec &spec : specs)
                        solo.addJob(spec);
                    solo.run();

                    ASSERT_EQ(solo.results().size(), got.size());
                    for (std::size_t i = 0; i < got.size(); ++i) {
                        const sim::JobResult &a = got[i];
                        const sim::JobResult &b = solo.results()[i];
                        EXPECT_EQ(a.spec.id, b.spec.id);
                        EXPECT_EQ(a.spec.dispatch, b.spec.dispatch);
                        EXPECT_EQ(a.firstStart, b.firstStart);
                        EXPECT_EQ(a.finish, b.finish);
                        EXPECT_EQ(a.dramBytesMoved, b.dramBytesMoved);
                        EXPECT_EQ(a.l2BytesMoved, b.l2BytesMoved);
                        EXPECT_EQ(a.stallCycles, b.stallCycles);
                        EXPECT_EQ(a.migrations, b.migrations);
                        EXPECT_EQ(a.preemptions, b.preemptions);
                        EXPECT_EQ(a.throttleReconfigs,
                                  b.throttleReconfigs);
                    }
                    EXPECT_EQ(fleet.perSoc[static_cast<std::size_t>(s)]
                                  .simSteps,
                              solo.stats().quanta);
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

// --- Stream replay vs per-arrival barriers -----------------------------

TEST(ParallelCluster, ReplayedStreamMatchesBarrieredStream)
{
    // rr and random read no SoC, so their stream is placed up front
    // and replayed in one epoch; behind the wrapper the same placements
    // barrier once per arrival.  Results, logical epoch counts, trace,
    // sampled series and epoch spans must all match, at every worker
    // count, on a Poisson stream and on one of tied arrivals (stalls).
    sim::SocConfig cfg = testSoc();
    cfg.sampleEvery = 100'000;
    const auto poisson =
        synthTasks(testSynth(160, 8 * cfg.numTiles, 23), cfg);
    const auto tied = [&] {
        auto t = poisson;
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i].arrival = static_cast<Cycles>(i / 3) * 40'000;
        return t;
    }();
    for (const auto *tasks : {&poisson, &tied}) {
        for (const std::string inner : {"rr", "random"}) {
            for (const int jobs : {1, 2, 4}) {
                SCOPED_TRACE(inner + " jobs=" + std::to_string(jobs) +
                             (tasks == &tied ? " tied" : " poisson"));
                const Captured barriered = runCaptured(
                    cfg, 8, jobs, "barriered:of=" + inner, *tasks);
                const Captured replayed =
                    runCaptured(cfg, 8, jobs, inner, *tasks);
                expectIdentical(barriered.result, replayed.result);
                expectSameCapture(barriered.capture, replayed.capture);
                EXPECT_GT(replayed.result.epochs, 1u);
                EXPECT_EQ(barriered.result.phases.barriers,
                          barriered.result.epochs);
                EXPECT_EQ(replayed.result.phases.barriers, 1u);
            }
        }
    }
}

TEST(ParallelCluster, LoadReadingDispatchersBarrierPerEpoch)
{
    const sim::SocConfig cfg = testSoc();
    const auto tasks =
        synthTasks(testSynth(80, 4 * cfg.numTiles, 29), cfg);
    for (const std::string dispatcher : {"p2c", "least-loaded"}) {
        SCOPED_TRACE(dispatcher);
        const ClusterResult res =
            runCaptured(cfg, 4, 2, dispatcher, tasks).result;
        EXPECT_GT(res.epochs, 1u);
        EXPECT_EQ(res.phases.barriers, res.epochs);
    }
}

// --- Mid-run injection and horizon stalls -----------------------------

TEST(ParallelCluster, SimultaneousArrivalsStallNotStep)
{
    // Groups of tasks sharing one arrival cycle exercise the
    // horizon-stall path.  After the group's first arrival no SoC is
    // behind the horizon, and a placement makes at most its own SoC
    // behind again (an injection cuts a parked step to end at the
    // arrival), so each trailing arrival steps at most the one SoC
    // its predecessor landed on, or stalls.  The group at cycle 0
    // stalls all 3 (nothing is behind cycle 0).  Ordering of the
    // injections within a group must still be preserved exactly.
    const sim::SocConfig cfg = testSoc();
    auto tasks = synthTasks(testSynth(90, 4 * cfg.numTiles, 7), cfg);
    for (std::size_t i = 0; i < tasks.size(); ++i)
        tasks[i].arrival = static_cast<Cycles>(i / 3) * 50'000;

    const Captured serial = runCaptured(cfg, 4, 1, "rr", tasks);
    const Captured sharded = runCaptured(cfg, 4, 3, "rr", tasks);
    expectIdentical(serial.result, sharded.result);
    expectSameCapture(serial.capture, sharded.capture);

    // One span per arrival, then the drain.
    const std::vector<obs::EpochSpan> &spans = serial.capture.epochs;
    ASSERT_EQ(spans.size(), tasks.size() + 1);
    std::uint64_t stalls = 0;
    for (std::size_t k = 0; k < tasks.size(); ++k) {
        SCOPED_TRACE("arrival " + std::to_string(k));
        if (k < 3) {
            EXPECT_TRUE(spans[k].stall);
        } else if (k % 3 != 0) {
            EXPECT_LE(spans[k].socsStepped, 1u);
        }
        EXPECT_EQ(spans[k].stall, spans[k].socsStepped == 0);
        stalls += spans[k].stall ? 1 : 0;
    }
    EXPECT_EQ(serial.result.horizonStalls, stalls);
    EXPECT_GT(serial.result.epochs, 0u);

    // Injection order within a group is the stream order: round-robin
    // placement of 90 tasks over 4 SoCs.
    int placed = 0;
    for (const auto &share : serial.result.perSoc)
        placed += share.tasks;
    EXPECT_EQ(placed, 90);
    EXPECT_GE(serial.result.perSoc[0].tasks,
              serial.result.perSoc[3].tasks);
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
    // soc1 jumped idle to the arrival, started the job there and
    // parked the step that crosses 20,000: its clock stays at the
    // step's start.
    EXPECT_EQ(soc1.now(), 10'000u);
    ASSERT_FALSE(soc1.behind(20'000));
    ASSERT_TRUE(soc1.behind(sim::kNoHorizon));
    // The parked step's end: the first horizon soc1 is behind.
    Cycles lo = 20'000, end = sim::kNoHorizon;
    while (end - lo > 1) {
        const Cycles mid = lo + (end - lo) / 2;
        (soc1.behind(mid) ? end : lo) = mid;
    }
    EXPECT_EQ(soc0.now(), 0u);

    // A horizon short of the parked step's end steps nothing: a
    // stall.
    engine.advanceFleet(end - 1);
    EXPECT_EQ(engine.stats().epochs, 1u);
    EXPECT_EQ(engine.stats().horizonStalls, 2u);
    EXPECT_EQ(soc1.now(), 10'000u);

    // Deactivated, soc1 makes no epoch even at its step's end...
    engine.setActive(1, false);
    engine.advanceFleet(end);
    EXPECT_EQ(engine.stats().epochs, 1u);
    EXPECT_EQ(engine.stats().horizonStalls, 3u);
    EXPECT_EQ(soc1.now(), 10'000u);

    // ... and active again, that horizon commits the step.
    engine.setActive(1, true);
    engine.advanceFleet(end);
    EXPECT_EQ(engine.stats().epochs, 2u);
    EXPECT_EQ(soc1.now(), end);
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
