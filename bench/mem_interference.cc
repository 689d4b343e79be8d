/**
 * @file
 * Memory-interference scenario family: how much does bank-level
 * memory modeling change (or confirm) the paper's policy ranking?
 *
 * The sweep crosses memory-hierarchy models {flat, banked at several
 * bank counts / remap policies} x policies {prema, planaria, moca} x
 * co-location mixes (the paper's Workload sets A/B/C at QoS-M), every
 * policy replaying the identical job stream per mix.  The flat model
 * reproduces the pre-mem-subsystem simulator exactly, so its cells
 * double as a regression anchor; the banked cells show whether MoCA's
 * SLA/STP margin over the baselines survives when row-buffer locality
 * destruction and bank conflicts are modeled explicitly instead of
 * through the global thrash heuristic.
 *
 * With `--json PATH` the bench writes its baseline
 * (bench/baselines/BENCH_mem.json, exp/sweep/records.h): a `cell`
 * record per cell with SLA/STP plus memory-behavior counters (row-hit
 * rate, per-bank imbalance, L2 conflict loss), a `margin` record per
 * memory model and baseline (MoCA's margin over it), and a `total`.
 *
 * Usage: mem_interference [tasks=150] [load=F] [seed=S]
 *                         [mems=flat,banked:banks=4,...]
 *                         [--policy SPEC[,SPEC...]] [--list-policies]
 *                         [--list-mem-models] [--jobs N] [--csv PATH]
 *                         [--json PATH] [kernel=quantum|event] ...
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/table.h"
#include "common/text.h"
#include "common/walltime.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"
#include "exp/sweep/records.h"
#include "mem/memory_model.h"

using namespace moca;

namespace {

struct CellKey
{
    workload::WorkloadSet set;
    std::string mem;
    std::string policy;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    const sim::SocConfig base = exp::socConfigFromArgs(args);
    const auto policies = exp::specsFromArgs<exp::PolicyRegistry>(
        args, {"prema", "planaria", "moca"});
    const int tasks = static_cast<int>(args.getInt("tasks", 150));
    const double load = args.getDouble("load", 1.2);
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const exp::SweepOptions opts = exp::sweepOptionsFromArgs(args);

    // Memory-model axis: `mems=` takes registry specs with the same
    // list grammar as --policy ("flat,banked:banks=4,remap=mod" is
    // flat followed by one parameterized banked spec).  A bare
    // `--mem X` (the shared SoC flag) restricts the sweep to X.
    std::vector<std::string> mems = splitSpecList(
        args.getString(
            "mems",
            args.has("mem")
                ? args.getString("mem", "flat")
                : "flat,banked:banks=4,banked:banks=8,"
                  "banked:banks=16,banked:banks=8,remap=mod"),
        "mems=");
    for (const auto &m : mems)
        (void)mem::MemoryModelRegistry::instance().make(m, base);
    const exp::OutputFiles out = exp::outputFilesFromArgs(args);
    args.requireAllRead();

    const std::vector<workload::WorkloadSet> sets = {
        workload::WorkloadSet::A,
        workload::WorkloadSet::B,
        workload::WorkloadSet::C,
    };

    std::printf("== mem_interference: memory-model x policy x mix "
                "(tasks=%d load=%.2f seed=%llu jobs=%d) ==\n\n",
                tasks, load, static_cast<unsigned long long>(seed),
                exp::resolveJobs(opts.jobs));
    exp::printSocBanner(base);
    // The banner shows the base config; the sweep's memory-model
    // axis overrides it per cell.
    std::printf("memory-model axis: %s\n\n",
                joinNames(mems).c_str());

    // One identical job stream per mix, shared read-only by every
    // (mem, policy) cell: isolated single-tile latencies — and
    // therefore QoS targets — are identical under flat and banked
    // (a lone streamer keeps full locality), so the comparison is
    // apples-to-apples across the whole grid.
    std::vector<CellKey> keys;
    std::vector<exp::SweepCell> grid;
    std::size_t mix_idx = 0;
    for (const auto set : sets) {
        workload::TraceConfig tr;
        tr.set = set;
        tr.qos = workload::QosLevel::Medium;
        tr.numTasks = tasks;
        tr.loadFactor = load;
        tr.seed = exp::deriveCellSeed(seed, mix_idx++);
        const auto stream =
            std::make_shared<const std::vector<sim::JobSpec>>(
                exp::makeTrace(tr, base));
        for (const auto &mem_spec : mems) {
            for (const auto &policy : policies) {
                exp::SweepCell cell;
                cell.label = strprintf(
                    "%s %s", workload::workloadSetName(set),
                    mem_spec.c_str());
                cell.policy = policy;
                cell.trace = tr;
                cell.soc = base;
                cell.soc.memModel = mem_spec;
                cell.specs = stream;
                grid.push_back(std::move(cell));
                keys.push_back({set, mem_spec, policy});
            }
        }
    }

    std::printf("running %zu cells...\n\n", grid.size());
    const WallTimer timer;
    const auto results = exp::SweepRunner(opts).run(grid);
    const double wall = timer.seconds();
    if (!out.csv.empty() &&
        !writeTextFile(out.csv, exp::sweepCsv(grid, results)))
        fatal("cannot write %s", out.csv.c_str());

    Table t({"Mix", "Mem model", "Policy", "SLA", "p-High", "STP",
             "RowHit%", "BankCV", "L2 lost (MB)"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        t.row()
            .cell(workload::workloadSetName(keys[i].set))
            .cell(keys[i].mem)
            .cell(keys[i].policy)
            .cell(r.metrics.slaRate, 3)
            .cell(r.metrics.slaRateHigh, 3)
            .cell(r.metrics.stp, 2)
            .cell(100.0 * r.memTraffic.rowHitRate(), 1)
            .cell(r.memTraffic.bankBytesCv(), 3)
            .cell(r.memTraffic.l2ConflictLostBytes / 1e6, 2);
    }
    t.print("memory-interference sweep");

    // --- MoCA margin per memory model (mean over mixes) ---------------
    struct Acc
    {
        double sla = 0.0;
        double stp = 0.0;
        int n = 0;
    };
    std::map<std::string, std::map<std::string, Acc>> by_mem;
    for (std::size_t i = 0; i < results.size(); ++i) {
        Acc &a = by_mem[keys[i].mem][keys[i].policy];
        a.sla += results[i].metrics.slaRate;
        a.stp += results[i].metrics.stp;
        a.n++;
    }
    const bool have_moca = by_mem.begin() != by_mem.end() &&
        by_mem.begin()->second.count("moca") > 0;
    if (have_moca) {
        Table m({"Mem model", "Policy", "mean SLA", "mean STP",
                 "MoCA SLA x", "MoCA STP x"});
        for (const auto &mem_spec : mems) {
            const auto &per_policy = by_mem[mem_spec];
            const Acc &moca = per_policy.at("moca");
            for (const auto &policy : policies) {
                const Acc &a = per_policy.at(policy);
                const double sla = a.sla / a.n;
                const double stp = a.stp / a.n;
                m.row()
                    .cell(mem_spec)
                    .cell(policy)
                    .cell(sla, 3)
                    .cell(stp, 2)
                    .cell(sla > 0.0 ? (moca.sla / moca.n) / sla
                                    : 0.0,
                          2)
                    .cell(stp > 0.0 ? (moca.stp / moca.n) / stp
                                    : 0.0,
                          2);
            }
        }
        m.print("MoCA margin by memory model (mean over mixes)");
    }
    std::printf("total wall: %.2f s\n", wall);

    std::vector<exp::Record> records;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto &r = results[i];
        records.push_back(
            {{"kind", "cell"},
             {"mix", workload::workloadSetName(keys[i].set)},
             {"mem", keys[i].mem}, {"policy", keys[i].policy},
             {"sla", jsonFixed(r.metrics.slaRate, 6)},
             {"sla_high", jsonFixed(r.metrics.slaRateHigh, 6)},
             {"stp", jsonFixed(r.metrics.stp, 6)},
             {"row_hit_rate", jsonFixed(r.memTraffic.rowHitRate(), 6)},
             {"bank_cv", jsonFixed(r.memTraffic.bankBytesCv(), 6)},
             {"l2_conflict_bytes",
              jsonFixed(r.memTraffic.l2ConflictLostBytes, 0)},
             {"makespan", r.makespan}});
    }
    for (const auto &mem_spec : mems) {
        if (!have_moca)
            break;
        const auto &per_policy = by_mem[mem_spec];
        const Acc &moca = per_policy.at("moca");
        for (const auto &policy : policies) {
            if (policy == "moca")
                continue;
            const Acc &a = per_policy.at(policy);
            records.push_back(
                {{"kind", "margin"}, {"mem", mem_spec}, {"vs", policy},
                 {"moca_sla_x",
                  jsonFixed(a.sla > 0.0 ? moca.sla / a.sla : 0.0, 4)},
                 {"moca_stp_x",
                  jsonFixed(a.stp > 0.0 ? moca.stp / a.stp : 0.0, 4)}});
        }
    }
    records.push_back({{"kind", "total"}, {"wall_s", jsonFixed(wall, 6)}});
    exp::writeRecords(
        out.json,
        exp::runMeta("mem_interference", opts.jobs,
                     {{"tasks", tasks},
                      {"load_factor", jsonFixed(load, 3)},
                      {"seed", seed},
                      {"kernel", sim::simKernelName(base.kernel)}}),
        records);
    return 0;
}
