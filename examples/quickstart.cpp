/**
 * @file
 * Quickstart: run a small multi-tenant mix under MoCA and print what
 * happened.  This is the 20-line tour of the public API:
 *
 *   1. pick a SoC configuration (Table II defaults),
 *   2. generate a multi-tenant trace (models, priorities, QoS),
 *   3. run it with exp::runScenario under a policy spec string
 *      (here: "moca" — any registered policy or parameterized
 *      variant like "moca:tick=2048" works),
 *   4. read the paper's metrics back.
 */

#include <cstdio>

#include "exp/scenario.h"

int
main()
{
    using namespace moca;

    sim::SocConfig soc; // Table II defaults: 8 tiles, 2 MB L2, 16 GB/s

    workload::TraceConfig trace;
    trace.set = workload::WorkloadSet::C; // all seven DNNs
    trace.qos = workload::QosLevel::Medium;
    trace.numTasks = 40;
    trace.seed = 1;

    std::printf("quickstart: %d tasks from %s under %s...\n",
                trace.numTasks, workload::workloadSetName(trace.set),
                workload::qosLevelName(trace.qos));

    const exp::ScenarioResult r = exp::runScenario("moca", trace, soc);

    std::printf("\nresults (MoCA):\n");
    std::printf("  SLA satisfaction   %.1f%%\n",
                100.0 * r.metrics.slaRate);
    std::printf("  by priority        low %.1f%% / mid %.1f%% / "
                "high %.1f%%\n",
                100.0 * r.metrics.slaRateLow,
                100.0 * r.metrics.slaRateMid,
                100.0 * r.metrics.slaRateHigh);
    std::printf("  STP                %.2f\n", r.metrics.stp);
    std::printf("  fairness           %.3f\n", r.metrics.fairness);
    std::printf("  makespan           %.1f Mcycles\n",
                static_cast<double>(r.makespan) / 1e6);
    std::printf("  DRAM busy          %.1f%%\n",
                100.0 * r.dramBusyFraction);
    std::printf("  throttle reconfigs %d, migrations %d\n",
                r.totalThrottleReconfigs, r.totalMigrations);
    return 0;
}
