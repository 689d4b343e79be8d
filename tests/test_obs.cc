/**
 * @file
 * Telemetry subsystem tests (src/obs): instrument semantics and
 * registry discipline, sim-time sampler cadence under both kernels,
 * Chrome trace_event JSON export (an unwritable trace or samples file
 * is fatal), trace-event kind-name coverage, and
 * the observability contract itself — telemetry on vs off (and PDES
 * jobs 1 vs 4) must leave every simulation outcome bit-identical.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/workload.h"
#include "dnn/model_zoo.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "exp/scenario.h"
#include "exp/sweep/options.h"
#include "obs/capture.h"
#include "obs/chrome_trace.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "serve/serve.h"
#include "sim/soc.h"
#include "sim/trace.h"

using namespace moca;

namespace {

sim::SocConfig
testSoc(sim::SimKernel kernel = sim::SimKernel::Event)
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

std::vector<cluster::ClusterTask>
synthTasks(int tasks, const sim::SocConfig &cfg, int fleet_tiles)
{
    cluster::SynthConfig synth;
    synth.numTasks = tasks;
    synth.set = workload::WorkloadSet::A;
    synth.fleetTiles = fleet_tiles;
    synth.seed = 11;
    return cluster::synthesizeTasks(synth, [&](dnn::ModelId id) {
        return exp::isolatedLatency(id, 1, cfg);
    });
}

/**
 * Minimal structural JSON validator: balanced containers, strings
 * closed, no trailing garbage.  Not a parser — enough to catch the
 * emitter bugs that would break chrome://tracing / json.tool.
 */
bool
jsonWellFormed(const std::string &text)
{
    std::vector<char> stack;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{': case '[': stack.push_back(c); break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default: break;
        }
    }
    return !in_string && stack.empty() && !text.empty();
}

} // namespace

// --- Instruments ------------------------------------------------------

TEST(Telemetry, CounterAndGaugeBasics)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);

    obs::Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(2.5);
    g.set(-1.0);
    EXPECT_EQ(g.value(), -1.0);
}

TEST(Telemetry, HistogramBucketEdgesAreInclusiveUpperBounds)
{
    // Prometheus "le" semantics: bucket i counts
    // edges[i-1] < v <= edges[i]; the last bucket is overflow.
    obs::Histogram h({10.0, 20.0, 30.0});
    ASSERT_EQ(h.numBuckets(), 4u);

    h.observe(5.0);   // <= 10            -> bucket 0
    h.observe(10.0);  // == edge 0        -> bucket 0 (inclusive)
    h.observe(10.5);  // (10, 20]         -> bucket 1
    h.observe(20.0);  // == edge 1        -> bucket 1
    h.observe(30.0);  // == edge 2        -> bucket 2
    h.observe(30.001); // > last edge     -> overflow
    h.observe(1e12);  //                  -> overflow

    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_EQ(h.totalCount(), 7u);
    EXPECT_DOUBLE_EQ(h.sum(),
                     5.0 + 10.0 + 10.5 + 20.0 + 30.0 + 30.001 + 1e12);
}

TEST(TelemetryDeathTest, HistogramRejectsBadEdges)
{
    EXPECT_DEATH(obs::Histogram({}), "edge");
    EXPECT_DEATH(obs::Histogram({1.0, 1.0}), "ascending");
    EXPECT_DEATH(obs::Histogram({2.0, 1.0}), "ascending");
}

// --- Registry ---------------------------------------------------------

TEST(Registry, ColumnsAndSnapshotFollowRegistrationOrder)
{
    obs::Registry reg;
    obs::Counter &jobs = reg.counter("jobs_done");
    obs::Gauge &depth = reg.gauge("queue_depth");
    obs::Histogram &lat =
        reg.histogram("latency", {100.0, 1000.0});

    jobs.add(3);
    depth.set(7.0);
    lat.observe(50.0);
    lat.observe(500.0);

    const std::vector<std::string> expected = {
        "jobs_done", "queue_depth", "latency.count", "latency.sum"};
    EXPECT_EQ(reg.columns(), expected);

    const std::vector<double> snap = reg.snapshot();
    ASSERT_EQ(snap.size(), expected.size());
    EXPECT_EQ(snap[0], 3.0);
    EXPECT_EQ(snap[1], 7.0);
    EXPECT_EQ(snap[2], 2.0);
    EXPECT_EQ(snap[3], 550.0);
    EXPECT_EQ(reg.size(), 3u);
}

TEST(Registry, InstrumentReferencesStayStableAsMoreRegister)
{
    obs::Registry reg;
    obs::Counter &first = reg.counter("first");
    for (int i = 0; i < 100; ++i)
        reg.counter("c" + std::to_string(i));
    first.add(9);
    EXPECT_EQ(reg.snapshot().front(), 9.0);
}

TEST(RegistryDeathTest, DuplicateNameDies)
{
    obs::Registry reg;
    reg.counter("x");
    EXPECT_DEATH(reg.counter("x"), "x");
    // Duplicates across kinds are just as much a caller bug.
    EXPECT_DEATH(reg.gauge("x"), "x");
    EXPECT_DEATH(reg.histogram("x", {1.0}), "x");
    EXPECT_DEATH(reg.counter(""), "name");
}

// --- Sampler ----------------------------------------------------------

TEST(Sampler, RowsLandOnTheFixedGrid)
{
    obs::Registry reg;
    obs::Counter &c = reg.counter("events");

    obs::Sampler sampler(reg, 50);
    EXPECT_EQ(sampler.pending(), 50u);

    // A tick far past several grid points emits one row per crossed
    // point, each stamped at the grid point with the post-step value
    // (state is piecewise-constant between steps).
    c.add(2);
    sampler.tick(125);
    c.add(5);
    sampler.tick(300);

    const obs::Timeseries &ts = sampler.series();
    ASSERT_EQ(ts.rows.size(), 6u);
    const Cycles expected_at[] = {50, 100, 150, 200, 250, 300};
    const double expected_val[] = {2, 2, 7, 7, 7, 7};
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(ts.rows[i].at, expected_at[i]) << "row " << i;
        ASSERT_EQ(ts.rows[i].values.size(), 1u);
        EXPECT_EQ(ts.rows[i].values[0], expected_val[i])
            << "row " << i;
    }
    EXPECT_EQ(sampler.pending(), 350u);
}

TEST(SamplerDeathTest, ZeroCadenceDies)
{
    obs::Registry reg;
    EXPECT_DEATH(obs::Sampler(reg, 0), "sample");
}

TEST(Sampler, SocCadenceIsKernelIndependent)
{
    // The grid depends only on (every, simulated span): both kernels
    // must sample at exactly k * every regardless of how they step.
    for (const auto kernel :
         {sim::SimKernel::Quantum, sim::SimKernel::Event}) {
        sim::SocConfig cfg = testSoc(kernel);
        cfg.sampleEvery = 100'000;
        const auto res =
            exp::runScenario("moca", testTrace(12, 5), cfg);
        ASSERT_NE(res.telemetry, nullptr)
            << sim::simKernelName(kernel);
        const obs::Timeseries &ts = *res.telemetry;
        ASSERT_GT(ts.rows.size(), 2u) << sim::simKernelName(kernel);
        for (std::size_t i = 0; i < ts.rows.size(); ++i)
            EXPECT_EQ(ts.rows[i].at,
                      static_cast<Cycles>(i + 1) * cfg.sampleEvery)
                << sim::simKernelName(kernel) << " row " << i;
    }
}

TEST(Sampler, IdleStretchBeforeAnArrivalReadsIdle)
{
    // Nothing arrives before cycle 1,000,000, so every grid point the
    // clock idle-jumps over must read an empty SoC — not the state of
    // the first step after the jump.
    sim::SocConfig cfg = testSoc();
    cfg.sampleEvery = 100'000;
    const auto policy = exp::PolicyRegistry::instance().make("moca", cfg);
    sim::Soc soc(cfg, *policy);
    sim::JobSpec spec;
    spec.id = 0;
    spec.model = &dnn::getModel(dnn::ModelId::AlexNet);
    spec.dispatch = 1'000'000;
    spec.slaLatency = 1'000'000'000;
    soc.addJob(spec);
    soc.run();

    ASSERT_NE(soc.sampler(), nullptr);
    const obs::Timeseries &ts = soc.sampler()->series();
    const auto column = [&](const std::string &name) {
        const auto it =
            std::find(ts.columns.begin(), ts.columns.end(), name);
        EXPECT_NE(it, ts.columns.end()) << name;
        return static_cast<std::size_t>(it - ts.columns.begin());
    };
    const std::size_t running = column("running_jobs");
    const std::size_t free_tiles = column("free_tiles");
    const std::size_t dram_mb = column("dram_mb");
    ASSERT_GT(ts.rows.size(), 10u);
    for (std::size_t i = 0; i < 9; ++i) {
        SCOPED_TRACE("row " + std::to_string(i));
        EXPECT_EQ(ts.rows[i].at, static_cast<Cycles>(i + 1) * 100'000);
        EXPECT_EQ(ts.rows[i].values[running], 0.0);
        EXPECT_EQ(ts.rows[i].values[free_tiles],
                  static_cast<double>(cfg.numTiles));
        EXPECT_EQ(ts.rows[i].values[dram_mb], 0.0);
    }
    // The job runs past the arrival, so the rows after it do not read
    // idle.
    EXPECT_EQ(ts.rows[10].values[running], 1.0);
}

TEST(Sampler, DisabledByDefaultAndResultOmitsTelemetry)
{
    const auto res =
        exp::runScenario("moca", testTrace(6, 3), testSoc());
    EXPECT_EQ(res.telemetry, nullptr);
}

TEST(Sampler, CsvAndJsonRenderings)
{
    obs::Registry reg;
    obs::Counter &c = reg.counter("done");
    obs::Sampler sampler(reg, 10);
    c.add(1);
    sampler.tick(10);
    c.add(1);
    sampler.tick(20);

    const std::string csv = timeseriesCsv(sampler.series());
    EXPECT_NE(csv.find("cycle"), std::string::npos);
    EXPECT_NE(csv.find("done"), std::string::npos);

    const std::string json = timeseriesJson(sampler.series());
    EXPECT_TRUE(jsonWellFormed(json)) << json;
    EXPECT_NE(json.find("\"columns\""), std::string::npos);
    EXPECT_NE(json.find("\"rows\""), std::string::npos);
}

TEST(SamplerDeathTest, UnwritableFileIsFatal)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full not available";
    obs::Timeseries ts;
    ts.columns = {"cycle"};
    EXPECT_DEATH(obs::writeTimeseries(ts, "/dev/full"),
                 "cannot write /dev/full");
}

// --- Trace-event kinds (satellite: socId + new kinds) -----------------

TEST(TraceEvents, EveryKindHasAUniqueName)
{
    std::vector<std::string> names;
    for (int k = 0; k < sim::kNumTraceEventKinds; ++k) {
        const std::string name = sim::traceEventKindName(
            static_cast<sim::TraceEventKind>(k));
        EXPECT_FALSE(name.empty()) << "kind " << k;
        EXPECT_EQ(name.find('?'), std::string::npos) << "kind " << k;
        for (const auto &prev : names)
            EXPECT_NE(name, prev) << "kind " << k;
        names.push_back(name);
    }
}

TEST(TraceEvents, RecorderStampsSocIdAndCostsNothingOff)
{
    sim::TraceRecorder rec;
    rec.setSocId(7);
    // Disabled (the default): record() must drop events entirely.
    rec.record(100, sim::TraceEventKind::JobStarted, 0);
    EXPECT_TRUE(rec.events().empty());

    rec.enable();
    rec.record(200, sim::TraceEventKind::SocFail, 3);
    ASSERT_EQ(rec.events().size(), 1u);
    EXPECT_EQ(rec.events()[0].socId, 7);
    EXPECT_EQ(rec.events()[0].kind, sim::TraceEventKind::SocFail);
    EXPECT_EQ(rec.events()[0].jobId, 3);
}

// --- Chrome trace export ----------------------------------------------

TEST(ChromeTrace, RendersWellFormedJsonWithAllRecordTypes)
{
    obs::ChromeTraceWriter w;
    w.processName(0, "coordinator");
    w.span(0, 0, "epoch (2 socs)", 1'000, 5'000);
    w.instant(0, 0, "shed 4", 2'000);
    w.counter(1, "queue \"depth\"\n", 3'000, 2.5); // Needs escaping.
    EXPECT_EQ(w.numEvents(), 4u);

    const std::string json = w.render();
    EXPECT_TRUE(jsonWellFormed(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\\\"depth\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(ChromeTraceDeathTest, UnwritableFileIsFatal)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full not available";
    obs::ChromeTraceWriter w;
    w.instant(0, 0, "x", 0);
    EXPECT_DEATH(w.write("/dev/full"), "cannot write /dev/full");
}

TEST(ChromeTrace, SocEventsBecomeSpansAndInstants)
{
    std::vector<sim::TraceEvent> events;
    events.push_back({1'000, sim::TraceEventKind::JobStarted, 0, 0, 2});
    events.push_back({5'000, sim::TraceEventKind::JobPaused, 0, 0, 2});
    events.push_back({6'000, sim::TraceEventKind::JobResumed, 0, 0, 2});
    events.push_back(
        {9'000, sim::TraceEventKind::JobCompleted, 0, 0, 2});
    events.push_back({500, sim::TraceEventKind::JobStarted, 1, 0, 2});
    // Job 1 never completes: its span is closed at the last cycle.

    obs::ChromeTraceWriter w;
    w.addSocEvents(events);
    const std::string json = w.render();
    EXPECT_TRUE(jsonWellFormed(json)) << json;
    EXPECT_NE(json.find("\"job 0\""), std::string::npos);
    EXPECT_NE(json.find("job 1 (open)"), std::string::npos);
    // SoC 2 lands on pid 3 (coordinator owns pid 0).
    EXPECT_NE(json.find("\"pid\": 3"), std::string::npos);
}

TEST(ChromeTrace, ClusterCaptureExportsAllLayers)
{
    const sim::SocConfig soc = testSoc();
    cluster::ClusterConfig cc =
        cluster::ClusterConfig::homogeneous(2, soc);
    cc.jobs = 2;
    obs::Capture capture;
    cc.capture = &capture;
    const auto tasks = synthTasks(16, soc, 2 * soc.numTiles);
    (void)cluster::runCluster(cc, tasks);

    EXPECT_FALSE(capture.epochs.empty());
    EXPECT_FALSE(capture.socEvents.empty());
    for (const auto &ev : capture.socEvents) {
        EXPECT_GE(ev.socId, 0);
        EXPECT_LT(ev.socId, 2);
    }

    obs::ChromeTraceWriter w;
    w.addCapture(capture);
    EXPECT_GT(w.numEvents(), 0u);
    const std::string json = w.render();
    EXPECT_TRUE(jsonWellFormed(json));
    EXPECT_NE(json.find("epoch"), std::string::npos);
}

TEST(ChromeTrace, ServeCaptureRecordsFrontendEvents)
{
    serve::ServeConfig sc;
    sc.soc = testSoc();
    sc.numSocs = 3;
    sc.clients.numClients = 6;
    sc.clients.requestsPerClient = 3;
    sc.clients.set = workload::WorkloadSet::A;
    sc.clients.timeoutScale = 8.0;
    sc.failures.rate = 4000.0; // Per Gcycle: failures will happen.

    obs::Capture capture;
    sc.capture = &capture;
    const auto res = serve::runServe(sc);

    ASSERT_GT(res.failEvents, 0u);
    bool saw_fail = false, saw_recover = false;
    for (const auto &ev : capture.frontend.events()) {
        saw_fail |= ev.kind == sim::TraceEventKind::SocFail;
        saw_recover |= ev.kind == sim::TraceEventKind::SocRecover;
    }
    EXPECT_TRUE(saw_fail);
    EXPECT_EQ(saw_recover, res.recoverEvents > 0);
    EXPECT_FALSE(capture.epochs.empty());
    EXPECT_FALSE(capture.socEvents.empty());

    obs::ChromeTraceWriter w;
    w.addCapture(capture);
    EXPECT_TRUE(jsonWellFormed(w.render()));
}

// --- Phase report -----------------------------------------------------

TEST(PhaseReport, SumsBreakdownsAndRendersFixedLayout)
{
    cluster::PhaseBreakdown phases;
    phases += {1.5, 0.5, 0.0, 3};
    phases += {0.5, 0.0, 2.0, 4};
    EXPECT_EQ(exp::phaseReport("serving phase profile (all cells)",
                               phases, "coordinator"),
              "serving phase profile (all cells)\n"
              "  shard-advance        2.000 s   44.4%\n"
              "  barrier-wait         0.500 s   11.1%\n"
              "  coordinator          2.000 s   44.4%\n"
              "  barriers                 7 worker releases\n");
    // Nothing recorded (profiling off): zero shares, not NaN.
    EXPECT_EQ(exp::phaseReport("t", cluster::PhaseBreakdown{}, "dispatch"),
              "t\n"
              "  shard-advance        0.000 s    0.0%\n"
              "  barrier-wait         0.000 s    0.0%\n"
              "  dispatch             0.000 s    0.0%\n"
              "  barriers                 0 worker releases\n");
}

TEST(PhaseReport, ClusterProfileFillsPhaseBreakdown)
{
    const sim::SocConfig soc = testSoc();
    cluster::ClusterConfig cc =
        cluster::ClusterConfig::homogeneous(2, soc);
    cc.jobs = 2;
    cc.profile = true;
    const auto tasks = synthTasks(12, soc, 2 * soc.numTiles);
    const auto res = cluster::runCluster(cc, tasks);
    EXPECT_GT(res.phases.shardAdvanceSec, 0.0);
    EXPECT_GT(res.phases.dispatchSec, 0.0);

    // Profiling off (the default): all zeros, as the timing=0
    // determinism baselines require.
    cc.profile = false;
    cc.capture = nullptr;
    const auto plain = cluster::runCluster(cc, tasks);
    EXPECT_EQ(plain.phases.shardAdvanceSec, 0.0);
    EXPECT_EQ(plain.phases.barrierWaitSec, 0.0);
    EXPECT_EQ(plain.phases.dispatchSec, 0.0);
    EXPECT_EQ(plain.phases.barriers, 0u);
}

// --- The observability contract ---------------------------------------

TEST(ObservabilityContract, ClusterBitIdenticalWithTelemetryOnOrOff)
{
    sim::SocConfig soc = testSoc();
    const auto tasks = synthTasks(24, soc, 4 * soc.numTiles);

    auto run = [&](bool telemetry, int jobs) {
        cluster::ClusterConfig cc =
            cluster::ClusterConfig::homogeneous(4, soc);
        cc.jobs = jobs;
        obs::Capture capture;
        if (telemetry) {
            for (auto &s : cc.socs)
                s.sampleEvery = 50'000;
            cc.capture = &capture;
            cc.profile = true;
        }
        return cluster::runCluster(cc, tasks);
    };

    const cluster::ClusterResult base = run(false, 1);
    for (const bool telemetry : {false, true}) {
        for (const int jobs : {1, 4}) {
            if (!telemetry && jobs == 1)
                continue;
            const cluster::ClusterResult other = run(telemetry, jobs);
            EXPECT_EQ(base.slaRate, other.slaRate);
            EXPECT_EQ(base.latency.p50, other.latency.p50);
            EXPECT_EQ(base.latency.p99, other.latency.p99);
            EXPECT_EQ(base.stp, other.stp);
            EXPECT_EQ(base.makespan, other.makespan);
            EXPECT_EQ(base.goodput, other.goodput);
            EXPECT_EQ(base.balanceCv, other.balanceCv);
            EXPECT_EQ(base.simSteps, other.simSteps);
            EXPECT_EQ(base.epochs, other.epochs);
            EXPECT_EQ(base.horizonStalls, other.horizonStalls);
            ASSERT_EQ(base.perSoc.size(), other.perSoc.size());
            for (std::size_t i = 0; i < base.perSoc.size(); ++i) {
                EXPECT_EQ(base.perSoc[i].tasks, other.perSoc[i].tasks);
                EXPECT_EQ(base.perSoc[i].makespan,
                          other.perSoc[i].makespan);
            }
        }
    }
}

TEST(ObservabilityContract, ServeBitIdenticalWithTelemetryOnOrOff)
{
    auto run = [&](bool telemetry, int jobs) {
        serve::ServeConfig sc;
        sc.soc = testSoc();
        sc.numSocs = 3;
        sc.jobs = jobs;
        sc.clients.numClients = 5;
        sc.clients.requestsPerClient = 3;
        sc.clients.set = workload::WorkloadSet::A;
        sc.clients.timeoutScale = 8.0;
        sc.failures.rate = 2000.0;
        obs::Capture capture;
        if (telemetry) {
            sc.soc.sampleEvery = 50'000;
            sc.capture = &capture;
            sc.profile = true;
        }
        return serve::runServe(sc);
    };

    const serve::ServeResult base = run(false, 1);
    for (const bool telemetry : {false, true}) {
        for (const int jobs : {1, 4}) {
            if (!telemetry && jobs == 1)
                continue;
            const serve::ServeResult other = run(telemetry, jobs);
            EXPECT_EQ(base.requests, other.requests);
            EXPECT_EQ(base.attempts, other.attempts);
            EXPECT_EQ(base.responses, other.responses);
            EXPECT_EQ(base.failEvents, other.failEvents);
            EXPECT_EQ(base.recoverEvents, other.recoverEvents);
            EXPECT_EQ(base.lostJobs, other.lostJobs);
            EXPECT_EQ(base.endCycle, other.endCycle);
            EXPECT_EQ(base.cluster.slaRate, other.cluster.slaRate);
            EXPECT_EQ(base.cluster.makespan, other.cluster.makespan);
            EXPECT_EQ(base.cluster.simSteps, other.cluster.simSteps);
            EXPECT_EQ(base.clientLatency.p99,
                      other.clientLatency.p99);
        }
    }
}
