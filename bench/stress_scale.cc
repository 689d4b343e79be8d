/**
 * @file
 * Long-horizon stress sweep comparing the two simulation kernels
 * (SocConfig::kernel): 2.5k-25k task traces under all three arrival
 * patterns (Poisson, uniform, bursty), each stream replayed
 * identically under the quantum and event kernels through
 * `exp::SweepRunner`.  Reports per-cell wall clock, kernel-step
 * counts, and metric deltas, and — with `--json PATH` — writes the
 * kernel perf baseline (BENCH_kernel.json, exp/sweep/records.h): a
 * `cell` record per measured (cell, kernel), `extrapolated`,
 * `compare`, `tier` and `total` records, walls in `*wall*` fields.
 *
 * Usage: stress_scale [tasks=2500,10000,25000] [load=F] [seed=S]
 *                     [kernels=both|quantum|event] [quantum-cap=N]
 *                     [--policy SPEC[,SPEC...]] [--list-policies]
 *                     [--jobs N] [--json PATH] [--sample-every N]
 *                     [--sample-out FILE] [max-cycles=N] ...
 *
 * `--sample-every N` turns on sim-time telemetry sampling in every
 * cell (src/obs; observational only), and `--sample-out FILE` writes
 * the first sampled cell's timeseries (CSV, or JSON for a .json
 * path; alone it samples every 100,000 cycles, the bench harness's
 * default shared with the fleet benches).
 *
 * `quantum-cap=N` bounds the quantum-kernel tier: cells with more
 * than N tasks skip the (hours-long at 100k) quantum run, and their
 * quantum wall is linearly extrapolated from the largest measured
 * tier of the same pattern+policy.  Extrapolated cells are explicit:
 * `~` in the table, `extrapolated` records in the JSON.  Metrics
 * (steps, SLA) are never extrapolated — only wall clock is.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/table.h"
#include "common/text.h"
#include "common/walltime.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"
#include "obs/sampler.h"

using namespace moca;

namespace {

struct CellKey
{
    workload::ArrivalPattern pattern;
    int tasks;
    std::string policy;
};

/** Quantum and event wall summed over one task-count tier. */
struct Tier
{
    int tasks = 0;
    double qsum = 0.0;
    double esum = 0.0;
    bool extrapolated = false;

    double speedup() const { return esum > 0.0 ? qsum / esum : 0.0; }
};

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    sim::SocConfig base = exp::socConfigFromArgs(args);
    const std::string sample_out = exp::sampleOutFromArgs(args, base);
    const auto policies =
        exp::specsFromArgs<exp::PolicyRegistry>(args, {"moca"});
    const auto tasks_list = parseIntList(
        "tasks", args.getString("tasks", "2500,10000,25000"));
    const double load = args.getDouble("load", 0.8);
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    // `kernels=` selects the comparison mode; a plain `--kernel X`
    // (the shared single-kernel bench flag) means "just that one".
    const std::string kernels = args.getString(
        "kernels",
        args.has("kernel") ? simKernelName(base.kernel) : "both");
    const bool run_quantum = kernels == "both" || kernels == "quantum";
    const bool run_event = kernels == "both" || kernels == "event";
    if (!run_quantum && !run_event)
        fatal("kernels=%s: expected both, quantum, or event",
              kernels.c_str());
    const int qcap =
        static_cast<int>(args.getInt("quantum-cap", 0));
    const exp::SweepOptions opts = exp::sweepOptionsFromArgs(args);
    const bool serial = exp::resolveJobs(opts.jobs) == 1;
    const std::string json = args.getString("json", "");
    args.requireAllRead();

    const std::vector<workload::ArrivalPattern> patterns = {
        workload::ArrivalPattern::Poisson,
        workload::ArrivalPattern::Uniform,
        workload::ArrivalPattern::Bursty,
    };

    std::printf("== stress_scale: long-horizon kernel comparison "
                "(load=%.2f seed=%llu jobs=%d) ==\n\n",
                load, static_cast<unsigned long long>(seed),
                exp::resolveJobs(opts.jobs));
    exp::printSocBanner(base);

    // One identical job stream per (pattern, tasks) cell, shared
    // read-only between the two kernels' grids.  `qindex` maps a key
    // to its row in the (possibly quantum-cap-filtered) quantum grid;
    // -1 marks a cell whose quantum tier is extrapolated.
    std::vector<CellKey> keys;
    std::vector<exp::SweepCell> quantum_grid, event_grid;
    std::vector<int> qindex;
    std::size_t idx = 0;
    for (const auto pattern : patterns) {
        for (const int tasks : tasks_list) {
            workload::TraceConfig tr;
            tr.set = workload::WorkloadSet::C;
            tr.qos = workload::QosLevel::Medium;
            tr.arrivals = pattern;
            tr.numTasks = tasks;
            tr.loadFactor = load;
            tr.seed = exp::deriveCellSeed(seed, idx++);
            const auto stream =
                std::make_shared<const std::vector<sim::JobSpec>>(
                    exp::makeTrace(tr, base));
            for (const auto &policy : policies) {
                exp::SweepCell cell;
                cell.label = strprintf(
                    "%s tasks=%d %s",
                    workload::arrivalPatternName(pattern), tasks,
                    policy.c_str());
                cell.policy = policy;
                cell.trace = tr;
                cell.soc = base;
                cell.specs = stream;
                keys.push_back({pattern, tasks, policy});

                if (qcap == 0 || tasks <= qcap) {
                    qindex.push_back(
                        static_cast<int>(quantum_grid.size()));
                    cell.soc.kernel = sim::SimKernel::Quantum;
                    quantum_grid.push_back(cell);
                } else {
                    qindex.push_back(-1);
                }
                cell.soc.kernel = sim::SimKernel::Event;
                event_grid.push_back(cell);
            }
        }
    }

    // Per-cell walls are meaningful only when the sweep runs serially;
    // with --jobs only the grid total is.
    auto run_grid = [&](const std::vector<exp::SweepCell> &grid,
                        std::vector<double> &walls, double &total) {
        std::vector<exp::ScenarioResult> results(grid.size());
        walls.assign(grid.size(), 0.0);
        const WallTimer grid_timer;
        exp::SweepRunner::runIndexed(
            grid.size(), opts.jobs, [&](std::size_t i) {
                if (opts.verbose)
                    inform("sweep: running cell %zu/%zu (%s)...", i + 1,
                           grid.size(), grid[i].label.c_str());
                const WallTimer cell_timer;
                results[i] = exp::runCell(grid[i]);
                walls[i] = cell_timer.seconds();
            });
        total = grid_timer.seconds();
        return results;
    };

    std::vector<double> qwalls, ewalls;
    double qwall = 0.0, ewall = 0.0;
    std::vector<exp::ScenarioResult> qres, eres;
    if (run_quantum) {
        std::printf("running %zu cells on the quantum kernel...\n",
                    quantum_grid.size());
        qres = run_grid(quantum_grid, qwalls, qwall);
    }
    if (run_event) {
        std::printf("running %zu cells on the event kernel...\n",
                    event_grid.size());
        eres = run_grid(event_grid, ewalls, ewall);
    }
    std::printf("\n");

    const bool both = run_quantum && run_event;
    if (!both) {
        const auto &res = run_quantum ? qres : eres;
        const auto &walls = run_quantum ? qwalls : ewalls;
        Table t({"cell", "wall (s)", "steps", "SLA", "STP"});
        for (std::size_t i = 0; i < res.size(); ++i) {
            t.row()
                .cell(run_quantum ? quantum_grid[i].label
                                  : event_grid[i].label)
                .cell(serial ? walls[i] : 0.0, 2)
                .cell(static_cast<long long>(res[i].simSteps))
                .cell(res[i].metrics.slaRate, 3)
                .cell(res[i].metrics.stp, 2);
        }
        t.print(strprintf("stress sweep (%s kernel)",
                          kernels.c_str()));
        std::printf("total wall: %.2f s\n",
                    run_quantum ? qwall : ewall);
    }

    // Quantum wall for a cell: measured when the tier ran, else
    // linearly extrapolated in task count from the largest measured
    // tier of the same pattern+policy (kernel steps are linear in
    // trace length).  Only wall clock is ever extrapolated.
    auto eventWall = [&](std::size_t i) {
        return serial ? ewalls[i] : 0.0;
    };
    auto quantumWall = [&](std::size_t i, bool &extrapolated) {
        extrapolated = qindex[i] < 0;
        if (!extrapolated)
            return serial ? qwalls[static_cast<std::size_t>(
                                qindex[i])]
                          : 0.0;
        double best_wall = 0.0;
        int best_tasks = 0;
        for (std::size_t j = 0; j < keys.size(); ++j) {
            if (qindex[j] < 0 ||
                keys[j].policy != keys[i].policy ||
                keys[j].pattern != keys[i].pattern ||
                keys[j].tasks <= best_tasks)
                continue;
            best_tasks = keys[j].tasks;
            best_wall = serial ? qwalls[static_cast<std::size_t>(
                                     qindex[j])]
                               : 0.0;
        }
        return best_tasks > 0 ? best_wall * keys[i].tasks / best_tasks
                              : 0.0;
    };

    std::vector<Tier> tiers;
    if (both) {
        Table t({"pattern", "tasks", "policy", "q wall", "e wall",
                 "speedup", "steps q/e", "SLA q", "SLA e",
                 "e ns/step"});
        for (std::size_t i = 0; i < keys.size(); ++i) {
            bool extrap = false;
            const double qw = quantumWall(i, extrap);
            const double ew = eventWall(i);
            const double ens = eres[i].simSteps > 0
                ? ew * 1e9 / static_cast<double>(eres[i].simSteps)
                : 0.0;
            Table &row = t.row()
                .cell(workload::arrivalPatternName(keys[i].pattern))
                .cell(static_cast<long long>(keys[i].tasks))
                .cell(keys[i].policy);
            if (!extrap) {
                const auto &qr =
                    qres[static_cast<std::size_t>(qindex[i])];
                row.cell(qw, 2)
                    .cell(ew, 2)
                    .cell(ew > 0.0 ? qw / ew : 0.0, 1)
                    .cell(static_cast<double>(qr.simSteps) /
                              static_cast<double>(eres[i].simSteps),
                          1)
                    .cell(qr.metrics.slaRate, 3);
            } else {
                row.cell(strprintf("~%.2f", qw))
                    .cell(ew, 2)
                    .cell(strprintf("~%.1f",
                                    ew > 0.0 ? qw / ew : 0.0))
                    .cell("-")
                    .cell("-");
            }
            row.cell(eres[i].metrics.slaRate, 3).cell(ens, 0);
        }
        t.print("stress sweep: quantum vs event kernel");

        // Per-tier speedup-vs-scale sums: the flat-cost claim the
        // event kernel makes is that this column does not collapse as
        // traces grow.
        std::printf("\nspeedup vs scale:\n");
        for (const int tasks : tasks_list) {
            Tier tier{tasks};
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (keys[i].tasks != tasks)
                    continue;
                bool extrap = false;
                tier.qsum += quantumWall(i, extrap);
                tier.extrapolated = tier.extrapolated || extrap;
                tier.esum += eventWall(i);
            }
            const char *approx = tier.extrapolated ? "~" : "";
            std::printf("  tasks=%-7d quantum %s%.2f s  "
                        "event %.2f s  speedup %s%.1fx\n",
                        tasks, approx, tier.qsum, tier.esum, approx,
                        tier.speedup());
            tiers.push_back(tier);
        }
        std::printf("\ntotal wall: quantum %.2f s, event %.2f s, "
                    "speedup %.1fx%s\n",
                    qwall, ewall,
                    ewall > 0.0 ? qwall / ewall : 0.0,
                    qcap > 0 ? " (quantum total covers measured "
                               "tiers only)" : "");
    }

    if (!sample_out.empty()) {
        // First sampled cell's timeseries (event grid preferred — it
        // always runs in the comparison modes that matter).
        const exp::ScenarioResult *sampled = nullptr;
        for (const auto &r : run_event ? eres : qres) {
            if (r.telemetry) {
                sampled = &r;
                break;
            }
        }
        if (sampled == nullptr)
            warn("--sample-out %s: no cell produced a sampled "
                 "series", sample_out.c_str());
        else
            obs::writeTimeseries(*sampled->telemetry, sample_out);
    }

    // One `cell` record per measured (cell, kernel), an
    // `extrapolated` one per quantum run quantum-cap skipped, a
    // `compare` one per cell when both kernels ran, then the tiers and
    // the total.
    std::vector<exp::Record> records;
    auto add = [&](const char *kind, std::size_t i,
                   const exp::Record &fields) {
        exp::Record &rec = records.emplace_back(exp::Record{
            {"kind", kind},
            {"pattern", workload::arrivalPatternName(keys[i].pattern)},
            {"tasks", keys[i].tasks},
            {"policy", keys[i].policy}});
        rec.insert(rec.end(), fields.begin(), fields.end());
    };
    auto measured = [&](std::size_t i, const char *kernel,
                        const exp::ScenarioResult &r, double wall) {
        const double steps = static_cast<double>(r.simSteps);
        add("cell", i,
            {{"kernel", kernel},
             {"steps", r.simSteps},
             {"sla_rate", jsonFixed(r.metrics.slaRate, 6)},
             {"stp", jsonFixed(r.metrics.stp, 6)},
             {"makespan", r.makespan},
             {"wall_s", jsonFixed(wall, 6)},
             {"ns_per_step_wall",
              jsonFixed(steps > 0 ? wall * 1e9 / steps : 0.0, 3)}});
    };
    for (std::size_t i = 0; i < keys.size(); ++i) {
        bool extrap = false;
        const double qw = run_quantum ? quantumWall(i, extrap) : 0.0;
        const double ew = run_event ? eventWall(i) : 0.0;
        const auto *qr = run_quantum && !extrap
            ? &qres[static_cast<std::size_t>(qindex[i])]
            : nullptr;
        if (qr != nullptr)
            measured(i, "quantum", *qr, qw);
        else if (run_quantum)
            add("extrapolated", i,
                {{"kernel", "quantum"}, {"wall_s", jsonFixed(qw, 6)}});
        if (run_event)
            measured(i, "event", eres[i], ew);
        if (!both)
            continue;
        exp::Record cmp = {
            {"extrapolated", extrap},
            {"speedup_wall", jsonFixed(ew > 0.0 ? qw / ew : 0.0, 3)}};
        if (qr != nullptr)
            cmp.insert(
                cmp.end(),
                {{"step_ratio",
                  jsonFixed(static_cast<double>(qr->simSteps) /
                                static_cast<double>(eres[i].simSteps),
                            3)},
                 {"sla_delta", jsonFixed(eres[i].metrics.slaRate -
                                             qr->metrics.slaRate,
                                         6)}});
        add("compare", i, cmp);
    }
    for (const Tier &tier : tiers)
        records.push_back({{"kind", "tier"},
                           {"tasks", tier.tasks},
                           {"extrapolated", tier.extrapolated},
                           {"quantum_wall_s", jsonFixed(tier.qsum, 6)},
                           {"event_wall_s", jsonFixed(tier.esum, 6)},
                           {"speedup_wall", jsonFixed(tier.speedup(), 3)}});
    exp::Record &total = records.emplace_back(exp::Record{{"kind", "total"}});
    if (run_quantum)
        total.emplace_back("quantum_wall_s", jsonFixed(qwall, 6));
    if (run_event)
        total.emplace_back("event_wall_s", jsonFixed(ewall, 6));
    if (both)
        total.emplace_back("speedup_wall",
                           jsonFixed(ewall > 0.0 ? qwall / ewall : 0.0, 3));
    exp::writeRecords(
        json,
        exp::runMeta("stress_scale", opts.jobs,
                     {{"kernels", kernels},
                      {"workload_set", "Workload-C"},
                      {"qos", "QoS-M"},
                      {"load_factor", jsonFixed(load, 3)},
                      {"seed", seed},
                      {"quantum_cap", qcap}}),
        records);
    return 0;
}
