/**
 * @file
 * Domain scenario: an AR/VR-style SoC running mixed-criticality DNNs
 * concurrently — latency-critical perception (high priority, tight
 * QoS), interactive detection (mid priority), and best-effort photo
 * indexing (low priority) — comparing all four multi-tenancy
 * mechanisms on the identical request stream.
 *
 * This is the motivating deployment of the paper's Sec. II: the
 * interesting question is not average throughput but whether the
 * high-priority tasks keep their deadlines while the best-effort work
 * still progresses.
 */

#include <cstdio>

#include "common/table.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"

using namespace moca;

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    // The selected policies (default: all four mechanisms) replay the
    // identical trace as one sweep grid (pass --jobs 4 to run them
    // concurrently, --policy to swap mechanisms in and out).
    const auto policies = exp::specsFromArgs<exp::PolicyRegistry>(
        args, exp::allPolicySpecs());
    const exp::SweepRunner runner(exp::sweepOptionsFromArgs(args));
    args.requireAllRead();
    sim::SocConfig soc;

    // Mixed-criticality trace: all seven DNNs, medium QoS, saturating
    // load, 120 requests.
    workload::TraceConfig trace;
    trace.set = workload::WorkloadSet::C;
    trace.qos = workload::QosLevel::Medium;
    trace.numTasks = 120;
    trace.seed = 11;

    std::printf("multi_tenant_qos: %d mixed-criticality requests, "
                "%s, %s\n\n", trace.numTasks,
                workload::workloadSetName(trace.set),
                workload::qosLevelName(trace.qos));

    std::vector<exp::SweepCell> grid;
    exp::appendPolicyCells(grid, "all-policies", policies, trace, soc);
    const auto results = runner.run(grid);

    Table t({"Policy", "SLA", "p-Low", "p-Mid", "p-High", "STP",
             "Fairness", "Migrations", "Preempts", "Throttle cfgs"});
    for (const auto &r : results) {
        t.row().cell(r.policy)
            .cell(r.metrics.slaRate, 3)
            .cell(r.metrics.slaRateLow, 3)
            .cell(r.metrics.slaRateMid, 3)
            .cell(r.metrics.slaRateHigh, 3)
            .cell(r.metrics.stp, 2)
            .cell(r.metrics.fairness, 4)
            .cell(static_cast<long long>(r.totalMigrations))
            .cell(static_cast<long long>(r.totalPreemptions))
            .cell(static_cast<long long>(r.totalThrottleReconfigs));
    }
    t.print("Policy comparison on the identical request stream");

    std::printf("\nreading guide: MoCA should hold the best p-High "
                "column without giving up\nSTP; Prema pays for "
                "serialization; Planaria pays ~1M-cycle migrations.\n");
    return 0;
}
