/**
 * @file
 * Closed-loop serving subsystem tests (serve/): admission registry
 * grammar and decision logic, retry/backoff cadence, client-pool
 * determinism, the serve driver's accounting invariants, bit-identity
 * across PDES worker counts (failures and admission control
 * included), the forced-timeout retry path, mid-run SoC fail/recover
 * on both time-advance kernels and both in-flight policies, retired
 * SoC incarnations keeping their results, trace events and sampled
 * series, and goodput wiring through cluster::runCluster.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "exp/oracle.h"
#include "obs/capture.h"
#include "serve/serve.h"

using namespace moca;
using serve::AdmissionDecision;
using serve::ServeConfig;
using serve::ServeResult;

namespace {

sim::SocConfig
testSoc(sim::SimKernel kernel = sim::SimKernel::Event)
{
    sim::SocConfig cfg;
    cfg.kernel = kernel;
    return cfg;
}

/** A small closed-loop configuration that exercises timeouts. */
ServeConfig
testServe(int socs, int clients, int rpc,
          sim::SimKernel kernel = sim::SimKernel::Event)
{
    ServeConfig sc;
    sc.soc = testSoc(kernel);
    sc.numSocs = socs;
    sc.clients.numClients = clients;
    sc.clients.requestsPerClient = rpc;
    sc.clients.set = workload::WorkloadSet::A;
    sc.clients.timeoutScale = 8.0;
    return sc;
}

std::vector<cluster::SocLoad>
loads(int socs, int outstanding_each)
{
    std::vector<cluster::SocLoad> out(
        static_cast<std::size_t>(socs));
    for (int i = 0; i < socs; ++i) {
        out[static_cast<std::size_t>(i)].socIdx = i;
        out[static_cast<std::size_t>(i)].waiting =
            outstanding_each;
    }
    return out;
}

/**
 * Field-by-field exact comparison: like the cluster engine, the
 * serving loop's contract is bit-identity, counters included.
 */
void
expectIdentical(const ServeResult &a, const ServeResult &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.responses, b.responses);
    EXPECT_EQ(a.giveUps, b.giveUps);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.deferrals, b.deferrals);
    EXPECT_EQ(a.orphans, b.orphans);
    EXPECT_EQ(a.requeued, b.requeued);
    EXPECT_EQ(a.lostJobs, b.lostJobs);
    EXPECT_EQ(a.failEvents, b.failEvents);
    EXPECT_EQ(a.recoverEvents, b.recoverEvents);
    EXPECT_EQ(a.endCycle, b.endCycle);
    EXPECT_EQ(a.successRate, b.successRate);
    EXPECT_EQ(a.meanUpSocs, b.meanUpSocs);
    EXPECT_EQ(a.clientLatency.p50, b.clientLatency.p50);
    EXPECT_EQ(a.clientLatency.p99, b.clientLatency.p99);
    EXPECT_EQ(a.cluster.slaRate, b.cluster.slaRate);
    EXPECT_EQ(a.cluster.slaRateHigh, b.cluster.slaRateHigh);
    EXPECT_EQ(a.cluster.latency.p50, b.cluster.latency.p50);
    EXPECT_EQ(a.cluster.latency.p99, b.cluster.latency.p99);
    EXPECT_EQ(a.cluster.normLatency.p99, b.cluster.normLatency.p99);
    EXPECT_EQ(a.cluster.stp, b.cluster.stp);
    EXPECT_EQ(a.cluster.makespan, b.cluster.makespan);
    EXPECT_EQ(a.cluster.goodput, b.cluster.goodput);
    EXPECT_EQ(a.cluster.shedRate, b.cluster.shedRate);
    EXPECT_EQ(a.cluster.retryRate, b.cluster.retryRate);
    EXPECT_EQ(a.cluster.timeoutRate, b.cluster.timeoutRate);
    EXPECT_EQ(a.cluster.balanceCv, b.cluster.balanceCv);
    EXPECT_EQ(a.cluster.simSteps, b.cluster.simSteps);
    ASSERT_EQ(a.cluster.perSoc.size(), b.cluster.perSoc.size());
    for (std::size_t i = 0; i < a.cluster.perSoc.size(); ++i) {
        EXPECT_EQ(a.cluster.perSoc[i].tasks,
                  b.cluster.perSoc[i].tasks);
        EXPECT_EQ(a.cluster.perSoc[i].makespan,
                  b.cluster.perSoc[i].makespan);
        EXPECT_EQ(a.cluster.perSoc[i].simSteps,
                  b.cluster.perSoc[i].simSteps);
    }
}

/** The accounting invariants every serve run must satisfy. */
void
expectAccountingInvariants(const ServeResult &r)
{
    // Every request resolves exactly once.
    EXPECT_EQ(r.requests, r.responses + r.giveUps);
    // Every admitted placement either came back to a waiting client,
    // completed as an orphan, or died with a failed SoC.
    EXPECT_EQ(r.attempts, r.responses + r.orphans + r.lostJobs);
    EXPECT_EQ(r.cluster.numTasks, r.attempts);
    EXPECT_GT(r.endCycle, 0u);
    if (r.requests > 0) {
        EXPECT_DOUBLE_EQ(r.successRate,
                         static_cast<double>(r.responses) /
                             static_cast<double>(r.requests));
    }
    if (r.responses > 0 && r.cluster.slaRate > 0.0) {
        EXPECT_GT(r.cluster.goodput, 0.0);
    }
}

} // namespace

// ---- admission registry ---------------------------------------------

TEST(Admission, RegistryGrammarAndValidation)
{
    auto &reg = serve::AdmissionRegistry::instance();
    EXPECT_STREQ(reg.make("always")->name(), "always");
    EXPECT_STREQ(reg.make("queue-cap:depth=2,defer=1")->name(),
                 "queue-cap");
    EXPECT_STREQ(
        reg.make("slo-budget:rate=2,burst=4,per_soc=0")->name(),
        "slo-budget");
    EXPECT_DEATH(reg.validate("nope"), "admission");
    EXPECT_DEATH(reg.validate("queue-cap:bogus=1"), "bogus");
    EXPECT_DEATH(reg.validate("queue-cap:depth=0"), "depth");
    EXPECT_DEATH(reg.validate("slo-budget:rate=0"), "rate");
    EXPECT_DEATH(reg.validate("slo-budget:burst=0.5"), "burst");
}

TEST(Admission, QueueCapShedsAtDepth)
{
    auto &reg = serve::AdmissionRegistry::instance();
    auto cap = reg.make("queue-cap:depth=2");
    cluster::ClusterTask task;
    // 2 SoCs x depth 2 = fleet cap 4 outstanding.
    EXPECT_EQ(cap->decide(task, 0, loads(2, 1)),
              AdmissionDecision::Admit);
    EXPECT_EQ(cap->decide(task, 0, loads(2, 2)),
              AdmissionDecision::Shed);
    auto defer = reg.make("queue-cap:depth=2,defer=1");
    EXPECT_EQ(defer->decide(task, 0, loads(2, 2)),
              AdmissionDecision::Defer);
    // The cap scales with the Up-SoC count: the same per-SoC load on
    // one SoC is over the fleet cap of 2.
    EXPECT_EQ(cap->decide(task, 0, loads(1, 2)),
              AdmissionDecision::Shed);
}

TEST(Admission, SloBudgetTokenBucket)
{
    auto &reg = serve::AdmissionRegistry::instance();
    auto bucket = reg.make("slo-budget:rate=1,burst=2,per_soc=0");
    cluster::ClusterTask task;
    const auto up = loads(1, 0);
    // Burst capacity: two admissions at t=0, then dry.
    EXPECT_EQ(bucket->decide(task, 0, up), AdmissionDecision::Admit);
    EXPECT_EQ(bucket->decide(task, 0, up), AdmissionDecision::Admit);
    EXPECT_EQ(bucket->decide(task, 0, up), AdmissionDecision::Shed);
    // rate=1/Mcycle: one token back after 1 Mcycle.
    EXPECT_EQ(bucket->decide(task, 1'000'000, up),
              AdmissionDecision::Admit);
    EXPECT_EQ(bucket->decide(task, 1'000'000, up),
              AdmissionDecision::Shed);
    // Refill saturates at burst, not at elapsed x rate.
    EXPECT_EQ(bucket->decide(task, 9'000'000, up),
              AdmissionDecision::Admit);
    EXPECT_EQ(bucket->decide(task, 9'000'000, up),
              AdmissionDecision::Admit);
    EXPECT_EQ(bucket->decide(task, 9'000'000, up),
              AdmissionDecision::Shed);
}

// ---- client pool -----------------------------------------------------

TEST(ClientPool, RetryBackoffCadence)
{
    const Cycles unit = 1000;
    EXPECT_EQ(serve::retryBackoff(unit, 1), 1000u);
    EXPECT_EQ(serve::retryBackoff(unit, 2), 2000u);
    EXPECT_EQ(serve::retryBackoff(unit, 3), 4000u);
    EXPECT_EQ(serve::retryBackoff(unit, 4), 8000u);
    // Capped: attempt 5 would be 16x but the cap holds it at 8x.
    EXPECT_EQ(serve::retryBackoff(unit, 5), 8000u);
}

TEST(ClientPool, DeterministicPopulation)
{
    const sim::SocConfig soc = testSoc();
    auto iso = [&](dnn::ModelId id) {
        return exp::isolatedLatency(id, 1, soc);
    };
    serve::ClientPoolConfig cfg;
    cfg.numClients = 3;
    cfg.requestsPerClient = 4;
    cfg.set = workload::WorkloadSet::A;
    cfg.timeoutScale = 2.0;
    const serve::ClientPool a(cfg, iso), b(cfg, iso);
    ASSERT_EQ(a.totalRequests(), 12);
    ASSERT_EQ(b.totalRequests(), 12);
    EXPECT_GT(a.meanIsolated(), 0u);
    for (int id = 0; id < a.totalRequests(); ++id) {
        const auto &ra = a.request(id);
        const auto &rb = b.request(id);
        EXPECT_EQ(ra.id, id);
        EXPECT_EQ(ra.client, id / cfg.requestsPerClient);
        EXPECT_EQ(ra.seq, id % cfg.requestsPerClient);
        EXPECT_GT(ra.think, 0u);
        EXPECT_GT(ra.timeout, 0u);
        EXPECT_GT(ra.task.slaLatency, 0u);
        EXPECT_EQ(ra.task.model, rb.task.model);
        EXPECT_EQ(ra.task.slaLatency, rb.task.slaLatency);
        EXPECT_EQ(ra.think, rb.think);
        EXPECT_EQ(ra.timeout, rb.timeout);
    }
    // timeoutScale=0 disables client timeouts entirely.
    cfg.timeoutScale = 0.0;
    const serve::ClientPool c(cfg, iso);
    for (int id = 0; id < c.totalRequests(); ++id)
        EXPECT_EQ(c.request(id).timeout, 0u);
}

// ---- the serving loop ------------------------------------------------

TEST(Serve, ClosedLoopAccountingInvariants)
{
    ServeConfig sc = testServe(2, 6, 4);
    const ServeResult r = serve::runServe(sc);
    EXPECT_EQ(r.requests, 24u);
    expectAccountingInvariants(r);
    // No failures, no admission pressure: nothing lost or shed.
    EXPECT_EQ(r.lostJobs, 0u);
    EXPECT_EQ(r.shed, 0u);
    EXPECT_EQ(r.failEvents, 0u);
    EXPECT_GT(r.responses, 0u);
    EXPECT_DOUBLE_EQ(r.meanUpSocs, 2.0);
}

TEST(Serve, DeterministicRepeat)
{
    ServeConfig sc = testServe(2, 5, 3);
    sc.admission = "queue-cap:depth=2";
    sc.failures.rate = 2000.0;
    sc.failures.meanDowntime = 2e5;
    const ServeResult a = serve::runServe(sc);
    const ServeResult b = serve::runServe(sc);
    expectIdentical(a, b);
}

TEST(Serve, BitIdenticalAcrossClusterJobs)
{
    // The acceptance gate: jobs=1 vs jobs=N byte-for-byte, with a
    // nonzero failure rate and live admission control in the loop.
    ServeConfig sc = testServe(4, 8, 3);
    sc.admission = "queue-cap:depth=3";
    sc.failures.rate = 1500.0;
    sc.failures.meanDowntime = 3e5;
    sc.jobs = 1;
    const ServeResult serial = serve::runServe(sc);
    expectAccountingInvariants(serial);
    for (int jobs : {2, 4}) {
        sc.jobs = jobs;
        const ServeResult sharded = serve::runServe(sc);
        expectIdentical(serial, sharded);
    }
}

TEST(Serve, TimeoutRetryBackoffPath)
{
    // Near-impossible timeouts: every attempt times out, clients
    // retry through the backoff schedule, then give up.
    ServeConfig sc = testServe(2, 4, 2);
    sc.clients.timeoutScale = 0.01;
    sc.clients.maxRetries = 2;
    const ServeResult r = serve::runServe(sc);
    expectAccountingInvariants(r);
    EXPECT_GT(r.timeouts, 0u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_GT(r.giveUps, 0u);
    // A timed-out attempt that later completes is an orphan, and a
    // request burns at most 1 + maxRetries attempts.
    EXPECT_GT(r.orphans, 0u);
    EXPECT_LE(r.attempts,
              r.requests * static_cast<std::uint64_t>(
                               1 + sc.clients.maxRetries));
    EXPECT_EQ(r.cluster.timeoutRate,
              static_cast<double>(r.timeouts) /
                  static_cast<double>(r.requests));
}

TEST(Serve, FailRecoverMidRunBothKernelsBothPolicies)
{
    for (auto kernel :
         {sim::SimKernel::Quantum, sim::SimKernel::Event}) {
        for (auto inflight : {serve::InflightPolicy::Requeue,
                              serve::InflightPolicy::Drop}) {
            ServeConfig sc = testServe(3, 6, 3, kernel);
            sc.failures.rate = 4000.0;
            sc.failures.meanDowntime = 2e5;
            sc.failures.inflight = inflight;
            const ServeResult r = serve::runServe(sc);
            expectAccountingInvariants(r);
            EXPECT_GT(r.failEvents, 0u)
                << sim::simKernelName(kernel) << " "
                << serve::inflightPolicyName(inflight);
            // Requeue turns lost attempts into free retries up to
            // the re-placement budget; drop leaves them all to the
            // client's timeout.
            if (inflight == serve::InflightPolicy::Requeue) {
                EXPECT_GT(r.requeued, 0u);
                EXPECT_LE(r.requeued, r.lostJobs);
            } else {
                EXPECT_EQ(r.requeued, 0u);
            }
        }
    }
}

TEST(Serve, RetiredIncarnationsKeepTheirResultsAndEvents)
{
    // A high failure rate reboots slots many times over; each reboot
    // folds the dead SoC into its slot and frees it.  Its completions,
    // trace events and metrics must all survive that.
    ServeConfig sc = testServe(3, 6, 4);
    sc.failures.rate = 8000.0;
    sc.failures.meanDowntime = 1e5;
    const ServeResult plain = serve::runServe(sc);
    obs::Capture capture;
    sc.capture = &capture;
    const ServeResult traced = serve::runServe(sc);
    expectAccountingInvariants(traced);
    expectIdentical(plain, traced);
    ASSERT_GT(traced.recoverEvents, 3u);

    std::uint64_t num_jobs = 0;
    for (const auto &share : traced.cluster.perSoc)
        num_jobs += static_cast<std::uint64_t>(share.metrics.numJobs);
    const auto completed = static_cast<std::uint64_t>(std::count_if(
        capture.socEvents.begin(), capture.socEvents.end(),
        [](const sim::TraceEvent &e) {
            return e.kind == sim::TraceEventKind::JobCompleted;
        }));
    EXPECT_EQ(completed, traced.attempts - traced.lostJobs);
    EXPECT_EQ(num_jobs, completed);
    EXPECT_EQ(capture.frontend.count(sim::TraceEventKind::SocRecover),
              traced.recoverEvents);

    for (std::size_t i = 0; i < plain.cluster.perSoc.size(); ++i) {
        const auto &a = plain.cluster.perSoc[i];
        const auto &b = traced.cluster.perSoc[i];
        EXPECT_EQ(a.metrics.numJobs, b.metrics.numJobs) << i;
        EXPECT_EQ(a.metrics.slaRate, b.metrics.slaRate) << i;
        EXPECT_EQ(a.metrics.stp, b.metrics.stp) << i;
        EXPECT_EQ(a.metrics.fairness, b.metrics.fairness) << i;
        EXPECT_EQ(a.metrics.meanNormLatency,
                  b.metrics.meanNormLatency)
            << i;
        EXPECT_EQ(a.dramBusyFraction, b.dramBusyFraction) << i;
    }
}

TEST(Serve, RetiredIncarnationsKeepTheirSampledSeries)
{
    // Each slot's sampled series is the concatenation of its
    // incarnations' rows: the failed SoC's up to the failure, then the
    // rebooted SoC's from the reboot on.  A rebooted SoC's clock starts
    // at 0, so its idle rows before the reboot must not appear.
    ServeConfig sc = testServe(3, 6, 4);
    sc.soc.sampleEvery = 20'000;
    sc.failures.rate = 8000.0;
    sc.failures.meanDowntime = 1e5;
    const ServeResult plain = serve::runServe(sc);
    obs::Capture capture;
    sc.capture = &capture;
    const ServeResult traced = serve::runServe(sc);
    expectIdentical(plain, traced);
    ASSERT_EQ(capture.socSeries.size(), 3u);

    bool spans_reboot = false;
    for (std::size_t i = 0; i < capture.socSeries.size(); ++i) {
        const auto &rows = capture.socSeries[i].rows;
        ASSERT_FALSE(rows.empty()) << i;
        for (std::size_t r = 1; r < rows.size(); ++r)
            EXPECT_LT(rows[r - 1].at, rows[r].at) << i << " row " << r;

        // Down intervals (fail, recover) of this slot, in order.
        std::vector<std::pair<Cycles, Cycles>> down;
        for (const auto &e : capture.frontend.events()) {
            if (e.jobId != static_cast<int>(i))
                continue;
            if (e.kind == sim::TraceEventKind::SocFail)
                down.emplace_back(e.cycle, e.cycle);
            else if (e.kind == sim::TraceEventKind::SocRecover)
                down.back().second = e.cycle;
        }
        for (const auto &[fail, recover] : down) {
            for (const auto &row : rows)
                EXPECT_FALSE(row.at > fail && row.at < recover)
                    << "slot " << i << " sampled at " << row.at
                    << " while down (" << fail << ", " << recover << ")";
            if (recover > fail && rows.front().at <= fail &&
                rows.back().at >= recover)
                spans_reboot = true;
        }
    }
    EXPECT_TRUE(spans_reboot);
}

TEST(Serve, SampledSeriesCoverEveryGridPointOfUpTime)
{
    // A SoC that fails after its last step froze idle: its series
    // must still run up to the failure.  So each slot has exactly one
    // row per grid point of up time — every point up to the slot's
    // last activity (its last failure or its last completion) that
    // does not fall strictly inside a down interval.
    ServeConfig sc = testServe(2, 4, 4);
    const Cycles every = 100'000;
    sc.soc.sampleEvery = every;
    sc.failures.rate = 400.0;
    obs::Capture capture;
    sc.capture = &capture;
    const ServeResult r = serve::runServe(sc);
    ASSERT_GT(r.failEvents, 0u);
    ASSERT_EQ(capture.socSeries.size(), 2u);

    for (std::size_t i = 0; i < capture.socSeries.size(); ++i) {
        const auto no_recovery = ~Cycles{0};
        std::vector<std::pair<Cycles, Cycles>> down;
        for (const auto &e : capture.frontend.events()) {
            if (e.jobId != static_cast<int>(i))
                continue;
            if (e.kind == sim::TraceEventKind::SocFail)
                down.emplace_back(e.cycle, no_recovery);
            else if (e.kind == sim::TraceEventKind::SocRecover)
                down.back().second = e.cycle;
        }
        ASSERT_FALSE(down.empty()) << "slot " << i << " never failed";
        const Cycles end =
            std::max(down.back().first, r.cluster.perSoc[i].makespan);

        std::vector<Cycles> want;
        for (Cycles g = every; g <= end; g += every) {
            bool up = true;
            for (const auto &[fail, recover] : down)
                up = up && !(g > fail && g < recover);
            if (up)
                want.push_back(g);
        }
        std::vector<Cycles> got;
        for (const auto &row : capture.socSeries[i].rows)
            got.push_back(row.at);
        EXPECT_EQ(got, want) << "slot " << i << ": " << got.size()
                             << " rows for " << want.size()
                             << " grid points of up time";
    }
}

TEST(Serve, GoodputWiredThroughRunCluster)
{
    const sim::SocConfig soc = testSoc();
    cluster::SynthConfig synth;
    synth.numTasks = 16;
    synth.set = workload::WorkloadSet::A;
    synth.fleetTiles = 2 * soc.numTiles;
    synth.seed = 3;
    const auto tasks =
        cluster::synthesizeTasks(synth, [&](dnn::ModelId id) {
            return exp::isolatedLatency(id, 1, soc);
        });
    const auto r = cluster::runCluster(
        cluster::ClusterConfig::homogeneous(2, soc), tasks);
    ASSERT_GT(r.makespan, 0u);
    if (r.slaRate > 0.0) {
        EXPECT_GT(r.goodput, 0.0);
        // goodput = SLA-met completions x 1e9 / makespan.
        const double met =
            r.goodput * static_cast<double>(r.makespan) / 1e9;
        EXPECT_NEAR(met,
                    r.slaRate * static_cast<double>(r.numTasks),
                    1e-6);
    }
    // Serving-only counters stay zero on the open-loop path.
    EXPECT_EQ(r.shedRate, 0.0);
    EXPECT_EQ(r.retryRate, 0.0);
    EXPECT_EQ(r.timeoutRate, 0.0);
}

// ---- misuse ----------------------------------------------------------

TEST(ServeDeath, InvalidConfiguration)
{
    ServeConfig sc = testServe(1, 2, 2);
    sc.jobs = 0;
    EXPECT_DEATH((void)serve::runServe(sc), "jobs");
    sc = testServe(0, 2, 2);
    EXPECT_DEATH((void)serve::runServe(sc), "SoC");
    sc = testServe(1, 2, 2);
    sc.admission = "nope";
    EXPECT_DEATH((void)serve::runServe(sc), "admission");
}

