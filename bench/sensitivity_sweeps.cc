/**
 * @file
 * SoC-configuration sensitivity study, mirroring the artifact
 * appendix's "Experiment customization" (users can reconfigure the
 * shared L2, the accelerator tiles, and the memory system):
 *
 *  - DRAM bandwidth sweep: contention management matters most when
 *    bandwidth is scarce; MoCA's margin over static should shrink as
 *    the channel gets faster.
 *  - Shared L2 capacity sweep: capacity contention drives DRAM
 *    traffic (Fig. 1's AlexNet pathology); more L2 relieves it.
 *  - Tile-count sweep: how the mechanisms scale with the number of
 *    co-located partitions.
 *
 * All eleven configuration points x two policies run as one grid on
 * the sweep engine; the oracle cache is keyed by the full SoC
 * configuration, so mixed-config cells share it safely.
 *
 * Usage: sensitivity_sweeps [tasks=N] [seed=S]
 *                           [--policy SPEC,SPEC] [--list-policies]
 *                           [--jobs N] [--csv PATH] [--json PATH]
 */

#include <cstdio>

#include "common/log.h"
#include "common/table.h"
#include "common/units.h"
#include "exp/matrix.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"

using namespace moca;

namespace {

struct Point
{
    std::string axisValue; ///< Row label within its sweep table.
    double mocaSla = 0.0;
    double staticSla = 0.0;
    double mocaStp = 0.0;
    double staticStp = 0.0;
};

/** Append the policy-pair cells for one configuration. */
void
addPoint(std::vector<exp::SweepCell> &grid, const std::string &label,
         const std::vector<std::string> &policies,
         const sim::SocConfig &cfg, int tasks, std::uint64_t seed)
{
    workload::TraceConfig trace;
    trace.set = workload::WorkloadSet::C;
    trace.qos = workload::QosLevel::Medium;
    trace.numTasks = tasks;
    trace.seed = seed;
    trace.numTiles = cfg.numTiles;

    exp::appendPolicyCells(grid, label, policies, trace, cfg);
}

void
printSweepTable(const std::string &title, const std::string &axis,
                const std::vector<std::string> &policies,
                const std::vector<exp::SweepCell> &grid,
                const std::vector<exp::ScenarioResult> &results,
                std::size_t lo, std::size_t hi)
{
    const std::string &a = policies[0], &b = policies[1];
    Table t({axis, a + " SLA", b + " SLA", a + "/" + b,
             a + " STP", b + " STP"});
    for (std::size_t i = lo; i + 1 < hi && i + 1 < results.size();
         i += 2) {
        Point p;
        p.axisValue = grid[i].label;
        p.mocaSla = results[i].metrics.slaRate;
        p.mocaStp = results[i].metrics.stp;
        p.staticSla = results[i + 1].metrics.slaRate;
        p.staticStp = results[i + 1].metrics.stp;
        t.row().cell(p.axisValue).cell(p.mocaSla, 3)
            .cell(p.staticSla, 3)
            .cell(exp::marginRatio(p.mocaSla, p.staticSla, 1e-3), 2)
            .cell(p.mocaStp, 2).cell(p.staticStp, 2);
    }
    t.print(title);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    const int tasks = static_cast<int>(args.getInt("tasks", 120));
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));

    // The sweep compares a managed against an unmanaged mechanism;
    // --policy substitutes any two specs (e.g. "moca:tick=2048,moca").
    const auto policies = exp::specsFromArgs<exp::PolicyRegistry>(
        args, {"moca", "static"});
    if (policies.size() != 2)
        fatal("sensitivity_sweeps needs exactly two policy specs, "
              "got %zu", policies.size());
    const exp::SweepRunner runner(exp::sweepOptionsFromArgs(args));
    const exp::OutputFiles out = exp::outputFilesFromArgs(args);
    args.requireAllRead();

    std::printf("== SoC sensitivity sweeps (%s vs %s, "
                "Workload-C QoS-M, tasks=%d) ==\n\n",
                policies[0].c_str(), policies[1].c_str(), tasks);

    // One grid, three slices: [0,8) DRAM bw, [8,16) L2, [16,22) tiles.
    std::vector<exp::SweepCell> grid;
    for (double bw : {8.0, 16.0, 32.0, 64.0}) {
        sim::SocConfig cfg;
        cfg.dramBytesPerCycle = bw;
        addPoint(grid, strprintf("%.0f", bw), policies, cfg, tasks,
                 seed);
    }
    for (std::uint64_t mb : {1ull, 2ull, 4ull, 8ull}) {
        sim::SocConfig cfg;
        cfg.l2Bytes = mb * MiB;
        addPoint(grid,
                 strprintf("%llu", static_cast<unsigned long long>(mb)),
                 policies, cfg, tasks, seed);
    }
    for (int tiles : {4, 8, 16}) {
        sim::SocConfig cfg;
        cfg.numTiles = tiles;
        addPoint(grid, strprintf("%d", tiles), policies, cfg, tasks,
                 seed);
    }

    const auto results = runner.run(grid);
    exp::writeSweepFiles(
        out,
        exp::runMeta("sensitivity_sweeps", runner.options().jobs,
                     {{"kernel", sim::simKernelName(sim::SocConfig{}.kernel)}}),
        grid, results);

    printSweepTable("DRAM bandwidth sweep", "DRAM (GB/s)", policies,
                    grid, results, 0, 8);
    printSweepTable("Shared L2 capacity sweep", "L2 (MB)", policies,
                    grid, results, 8, 16);
    printSweepTable("Accelerator tile-count sweep", "Tiles", policies,
                    grid, results, 16, 22);
    return 0;
}
