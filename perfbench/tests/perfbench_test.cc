// Tests of the benchmark harness: the timing wrappers must forward
// faithfully.  tests/run_tests.py checks the metric names and output.

#include <string>

#include <gtest/gtest.h>

#include "exp/scenario.h"
#include "layers.h"
#include "workloads.h"

using namespace perfbench;
using namespace moca;

namespace {

/** A small run of `workload`, plain or through the wrappers. */
Outcome
smallRun(const std::string &workload, bool timed, int jobs = 0)
{
    RunParams p;
    p.seed = 11;
    p.scale = 0.05;
    p.timed = timed;
    p.jobs = jobs;
    return runWorkload(workload, p);
}

} // namespace

TEST(TimedWrappers, SingleSocJobsAreIdentical)
{
    workload::TraceConfig tc;
    tc.numTasks = 40;
    tc.seed = 5;
    sim::SocConfig cfg;
    cfg.kernel = sim::SimKernel::Event;
    const auto specs = exp::makeTrace(tc, cfg);
    const auto plain = exp::runTrace("moca", specs, tc, cfg);

    sim::SocConfig timed_cfg = cfg;
    timed_cfg.memModel = timed("flat");
    takeLayerTotals();
    const auto wrapped =
        exp::runTrace(timed("moca"), specs, tc, timed_cfg);
    const LayerTotals t = takeLayerTotals();

    ASSERT_EQ(plain.jobs.size(), wrapped.jobs.size());
    for (std::size_t i = 0; i < plain.jobs.size(); ++i) {
        EXPECT_EQ(plain.jobs[i].spec.id, wrapped.jobs[i].spec.id);
        EXPECT_EQ(plain.jobs[i].firstStart, wrapped.jobs[i].firstStart);
        EXPECT_EQ(plain.jobs[i].finish, wrapped.jobs[i].finish);
        EXPECT_EQ(plain.jobs[i].migrations, wrapped.jobs[i].migrations);
        EXPECT_EQ(plain.jobs[i].throttleReconfigs,
                  wrapped.jobs[i].throttleReconfigs);
    }
    EXPECT_EQ(plain.simSteps, wrapped.simSteps);
    EXPECT_EQ(plain.metrics.slaRate, wrapped.metrics.slaRate);
    EXPECT_EQ(plain.metrics.stp, wrapped.metrics.stp);

    // The wrappers counted what they forwarded.
    EXPECT_GT(t.memCalls, 0u);
    EXPECT_GT(t.policyCalls, 0u);
    EXPECT_EQ(t.throttleReconfigs,
              static_cast<std::uint64_t>(wrapped.totalThrottleReconfigs));
    EXPECT_EQ(t.migrations,
              static_cast<std::uint64_t>(wrapped.totalMigrations));
    EXPECT_EQ(t.preemptions,
              static_cast<std::uint64_t>(wrapped.totalPreemptions));
}

TEST(TimedWrappers, EveryWorkloadSimulatesTheSame)
{
    for (const auto &w : workloadNames()) {
        SCOPED_TRACE(w);
        const Outcome plain = smallRun(w, false);
        const Outcome wrapped = smallRun(w, true);
        EXPECT_EQ(checkOutcome(plain), "");
        EXPECT_TRUE(plain.sameSimulation(wrapped));
        EXPECT_GT(wrapped.layers.memCalls, 0u);
        EXPECT_GT(wrapped.layers.policyCalls, 0u);
        EXPECT_EQ(plain.layers.memCalls, 0u);
    }
}

TEST(TimedWrappers, FleetDispatcherAndAdmissionAreCounted)
{
    const Outcome fleet = smallRun("fleet-rr", true);
    EXPECT_EQ(fleet.layers.dispatchCalls, fleet.submitted);
    EXPECT_GT(fleet.epochs, 0u);

    const Outcome serve = smallRun("serve-churn", true);
    EXPECT_GT(serve.layers.dispatchCalls, 0u);
    EXPECT_GT(serve.layers.admissionCalls, 0u);
    EXPECT_EQ(serve.responses + serve.giveUps, serve.requests);
}

TEST(Workloads, FleetIsIdenticalOnOneWorker)
{
    EXPECT_TRUE(smallRun("fleet-rr", false, 4)
                    .sameSimulation(smallRun("fleet-rr", false, 1)));
}
