/**
 * @file
 * Cluster fleet scaling study: does MoCA's contention-aware advantage
 * over the baselines survive at datacenter scale, where a front-end
 * load balancer can route contending jobs apart instead?  Sweeps fleet
 * size x dispatcher x per-SoC policy over synthesized open-loop
 * traces (cluster/workload.h), reporting fleet SLA, tail latency
 * (p50/p95/p99), STP, and load balance, and — with `--json PATH` —
 * writes one `cell` record per grid cell and a `total` record
 * (BENCH_cluster.json, exp/sweep/records.h).
 *
 * The default grid is {1,4,16,64} SoCs x {rr, p2c, least-loaded,
 * qos-aware} x {prema, planaria, moca} with tasks scaling with fleet
 * size (tasks-per-soc=1600, i.e. a 102k-task stream at 64 SoCs) over
 * the "wide" model mix (Table III plus the extension profiles);
 * `socs=1,4,16,64,128,256` adds the sharded engine's headroom tier
 * (a 409.6k-task stream at 256 SoCs), off in the CI smoke grid.
 *
 * `--cluster-jobs N` shards each fleet across N conservative-PDES
 * workers (cluster/parallel.h); every emitted number is bit-identical
 * for every N, which CI gates by comparing every field of the
 * `timing=0` JSON of `--cluster-jobs 1` vs `--cluster-jobs 4`.  (`--jobs` parallelizes
 * across grid cells as everywhere else; the two compose.)  These
 * fleet flags, the cell loop, the telemetry export and the `timing=1`
 * phase report are the bench harness's (exp::FleetOptions).
 *
 * Telemetry (src/obs): `--trace-out FILE` exports the *first* grid
 * cell's run as a Chrome trace_event JSON (chrome://tracing /
 * Perfetto) — per-SoC job spans plus the PDES epoch timeline;
 * `--sample-every N` turns on per-SoC sim-time sampling, and
 * `--sample-out FILE` writes the first cell's SoC-0 timeseries
 * (CSV, or JSON for a .json path).  All observational: emitted
 * metrics are bit-identical with or without them.
 *
 * Usage: cluster_scale [socs=1,4,16,64] [tasks-per-soc=N] [tasks=N]
 *                      [process=poisson|mmpp|diurnal] [mix=wide|a|b|c|
 *                      name,name,...] [load=F] [seed=S] [timing=0|1]
 *                      [--cluster-jobs N]
 *                      [--policy SPEC[,SPEC...]] [--list-policies]
 *                      [--dispatcher SPEC[,SPEC...]]
 *                      [--list-dispatchers] [--jobs N] [--json PATH]
 *                      [--trace-out FILE] [--sample-every N]
 *                      [--sample-out FILE] [kernel=quantum|event] ...
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "common/json.h"
#include "common/log.h"
#include "common/table.h"
#include "common/text.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"
#include "obs/capture.h"
#include "workload/workload.h"

using namespace moca;

namespace {

std::vector<dnn::ModelId>
parseMix(const std::string &text)
{
    if (text.size() == 1)
        return workload::workloadSetModels(
            workload::workloadSetFromName(text));
    if (text == "wide") {
        std::vector<dnn::ModelId> mix = dnn::allModelIds();
        for (dnn::ModelId id : dnn::extensionModelIds())
            mix.push_back(id);
        return mix;
    }
    std::vector<dnn::ModelId> mix;
    for (const auto &tok : splitCommaList(text))
        mix.push_back(dnn::modelIdFromName(tok));
    if (mix.empty())
        fatal("mix= needs at least one model");
    return mix;
}

struct Cell
{
    int socs = 0;
    int tasks = 0;
    std::string dispatcher;
    std::string policy;
    std::shared_ptr<const std::vector<cluster::ClusterTask>> stream;
    cluster::ClusterResult result;
    double wall = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    exp::FleetOptions fleet = exp::fleetOptionsFromArgs(args);
    const sim::SocConfig &base = fleet.soc;
    const auto policies = exp::specsFromArgs<exp::PolicyRegistry>(
        args, {"prema", "planaria", "moca"});
    const auto dispatchers =
        exp::specsFromArgs<cluster::DispatcherRegistry>(
            args, {"rr", "p2c", "least-loaded", "qos-aware"});
    const auto socs_list =
        parseIntList("socs", args.getString("socs", "1,4,16,64"));
    const int tasks_per_soc =
        static_cast<int>(args.getInt("tasks-per-soc", 1600));
    const int tasks_total = static_cast<int>(args.getInt("tasks", 0));
    const auto process = cluster::arrivalProcessFromName(
        args.getString("process", "poisson"));
    const auto mix = parseMix(args.getString("mix", "wide"));
    const double load = args.getDouble("load", 0.8);
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    // Telemetry export targets the first grid cell only: one capture
    // bag, written by that cell's run alone (never shared).
    const std::string sample_out = exp::sampleOutFromArgs(args, fleet.soc);
    const std::string json = args.getString("json", "");
    args.requireAllRead();
    obs::Capture capture;

    std::printf("== cluster_scale: fleet co-simulation "
                "(process=%s load=%.2f seed=%llu jobs=%d "
                "cluster-jobs=%d) ==\n\n",
                cluster::arrivalProcessName(process), load,
                static_cast<unsigned long long>(seed),
                exp::resolveJobs(fleet.sweep.jobs), fleet.clusterJobs);
    exp::printSocBanner(base);

    // One task stream per fleet size, shared read-only by every
    // dispatcher x policy cell so all strategies see identical
    // traffic.
    std::vector<Cell> cells;
    for (std::size_t si = 0; si < socs_list.size(); ++si) {
        const int n = socs_list[si];
        if (n < 1)
            fatal("socs=%d: fleet needs at least one SoC", n);
        const int tasks =
            tasks_total > 0 ? tasks_total : tasks_per_soc * n;

        cluster::SynthConfig synth;
        synth.process = process;
        synth.numTasks = tasks;
        synth.mix = mix;
        synth.loadFactor = load;
        synth.fleetTiles = n * base.numTiles;
        synth.seed = exp::deriveCellSeed(seed, si);
        const auto stream = std::make_shared<
            const std::vector<cluster::ClusterTask>>(
            cluster::synthesizeTasks(synth, [&](dnn::ModelId id) {
                return exp::isolatedLatency(id, 1, base);
            }));

        for (const auto &dispatcher : dispatchers) {
            for (const auto &policy : policies) {
                Cell cell;
                cell.socs = n;
                cell.tasks = tasks;
                cell.dispatcher = dispatcher;
                cell.policy = policy;
                cell.stream = stream;
                cells.push_back(std::move(cell));
            }
        }
    }

    std::printf("running %zu fleet cells...\n\n", cells.size());
    const double total_wall = exp::runTimedCells(
        fleet, cells,
        [&](Cell &cell, std::size_t i) {
            cluster::ClusterConfig cc =
                cluster::ClusterConfig::homogeneous(cell.socs, base);
            cc.policy = cell.policy;
            cc.dispatcher = cell.dispatcher;
            cc.dispatcherSeed = seed;
            cc.jobs = fleet.clusterJobs;
            cc.profile = fleet.recordWall;
            if (i == 0 && (!fleet.traceOut.empty() || !sample_out.empty()))
                cc.capture = &capture;
            cell.result = cluster::runCluster(cc, *cell.stream);
        },
        [](const Cell &cell) {
            return strprintf("socs=%d %s %s", cell.socs,
                             cell.dispatcher.c_str(), cell.policy.c_str());
        });

    Table t({"socs", "tasks", "dispatcher", "policy", "SLA",
             "SLA-hi", "p50n", "p99n", "STP", "goodput/s",
             "balance", "steps", "epochs", "stalls", "wall (s)"});
    for (const auto &cell : cells) {
        const auto &r = cell.result;
        t.row()
            .cell(static_cast<long long>(cell.socs))
            .cell(static_cast<long long>(cell.tasks))
            .cell(cell.dispatcher)
            .cell(cell.policy)
            .cell(r.slaRate, 3)
            .cell(r.slaRateHigh, 3)
            .cell(r.normLatency.p50, 2)
            .cell(r.normLatency.p99, 2)
            .cell(r.stp, 1)
            .cell(r.goodput, 0)
            .cell(r.balanceCv, 3)
            .cell(static_cast<long long>(r.simSteps))
            .cell(static_cast<long long>(r.epochs))
            .cell(static_cast<long long>(r.horizonStalls))
            .cell(cell.wall, 2);
    }
    t.print("cluster fleet sweep (p50n/p99n: end-to-end latency "
            "normalized to isolated full-SoC latency; epochs/stalls: "
            "PDES arrival horizons some SoC was behind / none was, "
            "barriered or replayed alike)");
    std::printf("\ntotal wall: %.2f s\n", total_wall);

    if (fleet.recordWall) {
        // Where the fleet runs actually spent their wall clock,
        // summed over all cells.
        cluster::PhaseBreakdown phases;
        for (const auto &cell : cells)
            phases += cell.result.phases;
        std::fputs(exp::phaseReport("PDES phase profile (all cells)",
                                    phases, "dispatch")
                       .c_str(),
                   stdout);
    }
    exp::writeFleetTelemetry(fleet.traceOut, sample_out, capture);

    std::vector<exp::Record> records;
    for (const auto &cell : cells) {
        const auto &r = cell.result;
        records.push_back(
            {{"kind", "cell"}, {"socs", cell.socs}, {"tasks", cell.tasks},
             {"dispatcher", cell.dispatcher}, {"policy", cell.policy},
             {"sla_rate", jsonFixed(r.slaRate, 6)},
             {"sla_rate_high", jsonFixed(r.slaRateHigh, 6)},
             {"stp", jsonFixed(r.stp, 6)},
             {"goodput", jsonFixed(r.goodput, 4)},
             {"shed_rate", jsonFixed(r.shedRate, 6)},
             {"retry_rate", jsonFixed(r.retryRate, 6)},
             {"timeout_rate", jsonFixed(r.timeoutRate, 6)},
             {"latency_p50", jsonFixed(r.latency.p50, 1)},
             {"latency_p95", jsonFixed(r.latency.p95, 1)},
             {"latency_p99", jsonFixed(r.latency.p99, 1)},
             {"norm_p50", jsonFixed(r.normLatency.p50, 4)},
             {"norm_p95", jsonFixed(r.normLatency.p95, 4)},
             {"norm_p99", jsonFixed(r.normLatency.p99, 4)},
             {"makespan", r.makespan},
             {"balance_cv", jsonFixed(r.balanceCv, 4)},
             {"sim_steps", r.simSteps}, {"epochs", r.epochs},
             {"horizon_stalls", r.horizonStalls},
             {"mean_socs_stepped", jsonFixed(r.meanSocsStepped, 4)},
             {"wall_s", jsonFixed(cell.wall, 6)}});
    }
    records.push_back(
        {{"kind", "total"},
         {"wall_s", jsonFixed(fleet.timing ? total_wall : 0.0, 6)}});
    exp::writeRecords(
        json,
        exp::runMeta("cluster_scale", fleet.sweep.jobs,
                     {{"process", cluster::arrivalProcessName(process)},
                      {"load_factor", jsonFixed(load, 3)},
                      {"seed", seed},
                      {"kernel", sim::simKernelName(base.kernel)},
                      {"cluster_jobs", fleet.clusterJobs}}),
        records);
    return 0;
}
