/**
 * @file
 * Component ablation of the MoCA design choices called out in
 * DESIGN.md: hardware throttling (Sec. III-B), the scheduler's
 * memory-aware pairing (Sec. III-D), the dynamic priority score
 * (Sec. III-C), and the rare compute repartitioning — plus the
 * simulator-side knob that idealizes the DRAM (max-min arbitration,
 * no thrash), which shows how much of MoCA's benefit exists only
 * because real unregulated memory systems misbehave.
 *
 * Every policy variant is a registry spec string ("moca:throttle=0",
 * ...) replaying the identical trace on the sweep engine — the
 * ablation needs no bespoke factory wiring; the memory-realism
 * ablation adds four more cells with modified SoC configurations.
 *
 * Usage: ablation_components [tasks=N] [seed=S] [set=a|b|c]
 *                            [qos=l|m|h] [--policy SPEC[,SPEC...]]
 *                            [--list-policies] [--jobs N]
 *                            [--csv PATH] [--json PATH]
 *
 * Any other `set=` or `qos=` value is fatal.
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
    sim::SocConfig cfg = exp::socConfigFromArgs(args);

    // The six MoCA variants as parameterized policy specs; --policy
    // swaps in any other variant list.
    const std::vector<std::string> variants =
        exp::specsFromArgs<exp::PolicyRegistry>(
            args, {
                      "moca",
                      "moca:throttle=0",
                      "moca:pairing=0",
                      "moca:dynamic_score=0",
                      "moca:repartition=0",
                      "moca:throttle=0,pairing=0,dynamic_score=0,"
                      "repartition=0",
                  });
    const std::size_t num_variants = variants.size();

    workload::TraceConfig trace;
    trace.numTasks = static_cast<int>(args.getInt("tasks", 200));
    trace.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    trace.set =
        workload::workloadSetFromName(args.getString("set", "c"));
    trace.qos = workload::qosLevelFromName(args.getString("qos", "m"));
    const exp::SweepRunner runner(exp::sweepOptionsFromArgs(args));
    const exp::OutputFiles out = exp::outputFilesFromArgs(args);
    args.requireAllRead();

    std::printf("== MoCA component ablation (%s, %s, tasks=%d, "
                "seed=%llu) ==\n\n",
                workload::workloadSetName(trace.set),
                workload::qosLevelName(trace.qos), trace.numTasks,
                static_cast<unsigned long long>(trace.seed));
    exp::printSocBanner(cfg);

    auto specs = std::make_shared<const std::vector<sim::JobSpec>>(
        exp::makeTrace(trace, cfg));

    // ---- grid: variant cells + 4 memory-realism cells ---------------
    std::vector<exp::SweepCell> grid;
    for (const auto &variant : variants) {
        exp::SweepCell cell;
        cell.label = variant;
        cell.policy = variant;
        cell.trace = trace;
        cell.soc = cfg;
        cell.specs = specs;
        grid.push_back(std::move(cell));
    }

    // Simulator-side ablation: realistic vs idealized memory system.
    // The realistic pair replays the specs generated above; the
    // idealized configuration changes the SoC, so its pair shares a
    // trace regenerated once for that config.
    for (bool ideal : {false, true}) {
        sim::SocConfig c2 = cfg;
        auto pair_specs = specs;
        if (ideal) {
            c2.dramProportionalArbitration = false;
            c2.dramThrashFactor = 0.0;
            pair_specs = std::make_shared<
                const std::vector<sim::JobSpec>>(
                exp::makeTrace(trace, c2));
        }
        const char *label = ideal
            ? "idealized (max-min, no thrash)"
            : "realistic (FCFS-like + thrash)";
        for (const char *policy : {"moca", "static"}) {
            exp::SweepCell cell;
            cell.label = label;
            cell.policy = policy;
            cell.trace = trace;
            cell.soc = c2;
            cell.specs = pair_specs;
            grid.push_back(std::move(cell));
        }
    }

    const auto results = runner.run(grid);
    exp::writeSweepFiles(
        out,
        exp::runMeta("ablation_components", runner.options().jobs,
                     {{"kernel", sim::simKernelName(cfg.kernel)}}),
        grid, results);

    Table t({"Variant", "SLA", "SLA p-High", "STP", "Fairness",
             "Thrash (MB)"});
    for (std::size_t v = 0; v < num_variants; ++v) {
        const auto &r = results[v];
        t.row().cell(grid[v].label).cell(r.metrics.slaRate, 3)
            .cell(r.metrics.slaRateHigh, 3).cell(r.metrics.stp, 2)
            .cell(r.metrics.fairness, 4)
            .cell(r.thrashLostBytes / 1e6, 0);
    }
    t.print("MoCA component ablation");

    Table t2({"DRAM model", "SLA (moca)", "SLA (static)",
              "STP (moca)", "STP (static)"});
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &moca_r = results[num_variants + 2 * i];
        const auto &stat_r = results[num_variants + 2 * i + 1];
        t2.row().cell(grid[num_variants + 2 * i].label)
            .cell(moca_r.metrics.slaRate, 3)
            .cell(stat_r.metrics.slaRate, 3)
            .cell(moca_r.metrics.stp, 2)
            .cell(stat_r.metrics.stp, 2);
    }
    t2.print("Memory-system realism ablation");
    return 0;
}
