/**
 * @file
 * Smoke sweep + throughput baseline for the parallel experiment
 * engine.  The default mode replays the historical 12-point
 * (load x qos_scale) grid under all four policies through
 * `exp::SweepRunner`.  `timing=1` instead times a fig5-sized grid
 * (under the selected SoC flags and policies) at `--jobs 1` versus
 * `--jobs <hw_concurrency>` and prints the speedup, so sweep
 * throughput can be tracked against a baseline.
 *
 * Usage: _sweep [tasks=N] [--policy SPEC[,SPEC...]]
 *               [--list-policies] [--jobs N] [--csv PATH]
 *               [--json PATH] [timing=1 [timing_tasks=N]]
 */

#include <cstdio>

#include "common/log.h"
#include "common/table.h"
#include "common/text.h"
#include "common/walltime.h"
#include "exp/matrix.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"

using namespace moca;

namespace {

double
wallSeconds(const std::function<void()> &fn)
{
    const WallTimer timer;
    fn();
    return timer.seconds();
}

/** Time the fig5 grid (9 scenarios x `policies`) at a given worker
 *  count. */
double
timeMatrix(int tasks, int jobs, const sim::SocConfig &cfg,
           const std::vector<std::string> &policies)
{
    exp::MatrixConfig mcfg;
    mcfg.numTasks = tasks;
    mcfg.policies = policies;
    exp::SweepOptions opts;
    opts.jobs = jobs;
    return wallSeconds([&] { exp::runMatrix(mcfg, cfg, opts); });
}

int
runTimingBaseline(const ArgMap &args,
                  const std::vector<std::string> &policies)
{
    const int tasks = static_cast<int>(args.getInt("timing_tasks", 100));
    const int hw = exp::resolveJobs(0);
    const sim::SocConfig cfg = exp::socConfigFromArgs(args);
    args.requireAllRead();

    std::printf("== sweep throughput baseline: fig5-sized grid "
                "(%zu cells, tasks=%d, kernel=%s, mem=%s, "
                "policies=%s) ==\n\n",
                exp::matrixCells().size() * policies.size(), tasks,
                sim::simKernelName(cfg.kernel), cfg.memModel.c_str(),
                joinNames(policies).c_str());

    // Warm the oracle cache once so both measurements exercise the
    // same (simulation-only) work.
    exp::clearOracleCache();
    (void)timeMatrix(10, 1, cfg, policies);

    const double serial = timeMatrix(tasks, 1, cfg, policies);
    const double parallel = timeMatrix(tasks, hw, cfg, policies);

    Table t({"jobs", "wall (s)", "speedup"});
    t.row().cell(1LL).cell(serial, 2).cell(1.0, 2);
    t.row().cell(static_cast<long long>(hw)).cell(parallel, 2)
        .cell(serial / parallel, 2);
    t.print("fig5-sized grid wall-clock");
    std::printf("\nhardware concurrency: %d\n", hw);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    const auto policies = exp::specsFromArgs<exp::PolicyRegistry>(
        args, exp::allPolicySpecs());
    if (args.getBool("timing", false))
        return runTimingBaseline(args, policies);

    const int tasks = static_cast<int>(args.getInt("tasks", 150));
    const sim::SocConfig cfg = exp::socConfigFromArgs(args);
    const exp::SweepRunner runner(exp::sweepOptionsFromArgs(args));
    const exp::OutputFiles out = exp::outputFilesFromArgs(args);
    args.requireAllRead();

    // The historical smoke grid: Workload-C QoS-M at three offered
    // loads and four QoS scales, each under the selected policies on
    // the identical trace.
    std::vector<exp::SweepCell> grid;
    for (double load : {1.0, 1.5, 2.0}) {
        for (double qs : {1.0, 1.5, 2.0, 3.0}) {
            workload::TraceConfig tr;
            tr.set = workload::WorkloadSet::C;
            tr.qos = workload::QosLevel::Medium;
            tr.numTasks = tasks;
            tr.loadFactor = load;
            tr.qosScale = qs;
            tr.seed = 2;
            exp::appendPolicyCells(
                grid, strprintf("load=%.1f qos=%.1f", load, qs),
                policies, tr, cfg);
        }
    }

    const auto results = runner.run(grid);
    exp::writeSweepFiles(
        out,
        exp::runMeta("_sweep", runner.options().jobs,
                     {{"kernel", sim::simKernelName(cfg.kernel)}}),
        grid, results);

    for (std::size_t i = 0; i < results.size();) {
        std::printf("%s :", grid[i].label.c_str());
        for (std::size_t p = 0; p < policies.size(); ++p, ++i) {
            std::printf("  %s=%.2f(stp %.1f)",
                        results[i].policy.c_str(),
                        results[i].metrics.slaRate,
                        results[i].metrics.stp);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    return 0;
}
