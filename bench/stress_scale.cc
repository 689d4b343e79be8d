/**
 * @file
 * Long-horizon stress sweep comparing the two simulation kernels
 * (SocConfig::kernel): 2.5k-25k task traces under all three arrival
 * patterns (Poisson, uniform, bursty), each stream replayed
 * identically under the quantum and event kernels through
 * `exp::SweepRunner`.  Reports per-cell wall clock, kernel-step
 * counts, and metric deltas, and — with `--json PATH` — emits the
 * machine-readable perf baseline (BENCH_kernel.json) that CI uploads
 * so the bench trajectory accumulates.
 *
 * Note: unlike the figure benches, `--json` here writes the kernel
 * perf baseline, not per-scenario result rows.
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
 * path).
 *
 * `quantum-cap=N` bounds the quantum-kernel tier: cells with more
 * than N tasks skip the (hours-long at 100k) quantum run, and their
 * quantum wall is linearly extrapolated from the largest measured
 * tier of the same pattern+policy.  Extrapolated cells are explicit:
 * `~` in the table, `quantum_extrapolated` in the JSON.  Metrics
 * (steps, SLA) are never extrapolated — only wall clock is.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "common/text.h"
#include "common/walltime.h"
#include "exp/sweep/options.h"
#include "obs/sampler.h"

using namespace moca;

namespace {

/** Wall-clock timestamps per completed cell (valid per cell when the
 *  sweep runs serially; only the total is meaningful with --jobs). */
class TimingSink : public exp::ResultSink
{
  public:
    void start() { timer_.restart(); }

    void
    onResult(std::size_t, const exp::SweepCell &,
             const exp::ScenarioResult &) override
    {
        walls.push_back(timer_.restart());
    }

    std::vector<double> walls;

  private:
    WallTimer timer_;
};

std::vector<int>
parseTaskList(const std::string &text)
{
    std::vector<int> tasks;
    for (const auto &tok : splitCommaList(text))
        tasks.push_back(
            static_cast<int>(parseIntValue("tasks", tok)));
    if (tasks.empty())
        fatal("tasks= needs at least one value");
    return tasks;
}

struct CellKey
{
    workload::ArrivalPattern pattern;
    int tasks;
    std::string policy;
};

void
writeJsonSide(std::FILE *f, const char *name,
              const exp::ScenarioResult &r, double wall)
{
    std::fprintf(
        f,
        "      \"%s\": {\"wall_s\": %.6f, \"steps\": %llu, "
        "\"sla_rate\": %.6f, \"stp\": %.6f, \"makespan\": %llu}",
        name, wall, static_cast<unsigned long long>(r.simSteps),
        r.metrics.slaRate, r.metrics.stp,
        static_cast<unsigned long long>(r.makespan));
}

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    sim::SocConfig base = exp::socConfigFromArgs(args);
    const std::string sample_out = args.getString("sample-out", "");
    if (!sample_out.empty() && base.sampleEvery == 0) {
        base.sampleEvery = 100'000;
        inform("--sample-out without --sample-every: defaulting to "
               "sampling every %llu cycles",
               static_cast<unsigned long long>(base.sampleEvery));
    }
    const auto policies = exp::policiesFromArgs(args, {"moca"});
    const auto tasks_list =
        parseTaskList(args.getString("tasks", "2500,10000,25000"));
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

    const exp::SweepRunner runner(opts);
    auto run_grid = [&](const std::vector<exp::SweepCell> &grid,
                        TimingSink &sink, double &total) {
        sink.start();
        const WallTimer grid_timer;
        const auto results = runner.run(grid, {&sink});
        total = grid_timer.seconds();
        return results;
    };

    TimingSink qtimes, etimes;
    double qwall = 0.0, ewall = 0.0;
    std::vector<exp::ScenarioResult> qres, eres;
    if (run_quantum) {
        std::printf("running %zu cells on the quantum kernel...\n",
                    quantum_grid.size());
        qres = run_grid(quantum_grid, qtimes, qwall);
    }
    if (run_event) {
        std::printf("running %zu cells on the event kernel...\n",
                    event_grid.size());
        eres = run_grid(event_grid, etimes, ewall);
    }
    std::printf("\n");

    const bool both = run_quantum && run_event;
    if (!both) {
        const auto &res = run_quantum ? qres : eres;
        const auto &walls = run_quantum ? qtimes.walls : etimes.walls;
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
    auto quantumWall = [&](std::size_t i, bool &extrapolated) {
        extrapolated = qindex[i] < 0;
        if (!extrapolated)
            return serial ? qtimes.walls[static_cast<std::size_t>(
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
            best_wall = serial ? qtimes.walls[static_cast<std::size_t>(
                                     qindex[j])]
                               : 0.0;
        }
        return best_tasks > 0 ? best_wall * keys[i].tasks / best_tasks
                              : 0.0;
    };

    if (both) {
        Table t({"pattern", "tasks", "policy", "q wall", "e wall",
                 "speedup", "steps q/e", "SLA q", "SLA e",
                 "e ns/step"});
        for (std::size_t i = 0; i < keys.size(); ++i) {
            bool extrap = false;
            const double qw = quantumWall(i, extrap);
            const double ew = serial ? etimes.walls[i] : 0.0;
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
        std::printf("\nspeedup vs scale:\n");
        for (const int tasks : tasks_list) {
            double qsum = 0.0, esum = 0.0;
            bool any_extrap = false;
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (keys[i].tasks != tasks)
                    continue;
                bool extrap = false;
                qsum += quantumWall(i, extrap);
                any_extrap = any_extrap || extrap;
                esum += serial ? etimes.walls[i] : 0.0;
            }
            std::printf("  tasks=%-7d quantum %s%.2f s  "
                        "event %.2f s  speedup %s%.1fx\n",
                        tasks, any_extrap ? "~" : "", qsum, esum,
                        any_extrap ? "~" : "",
                        esum > 0.0 ? qsum / esum : 0.0);
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

    const std::string json = args.getString("json", "");
    if (!json.empty()) {
        std::FILE *f = std::fopen(json.c_str(), "w");
        if (f == nullptr)
            fatal("cannot write %s", json.c_str());
        std::fprintf(f, "{\n  \"bench\": \"stress_scale\",\n");
        std::fprintf(f, "  \"workload_set\": \"Workload-C\",\n");
        std::fprintf(f, "  \"qos\": \"QoS-M\",\n");
        std::fprintf(f, "  \"load_factor\": %.3f,\n", load);
        std::fprintf(f, "  \"seed\": %llu,\n",
                     static_cast<unsigned long long>(seed));
        std::fprintf(f, "  \"jobs\": %d,\n",
                     exp::resolveJobs(opts.jobs));
        if (qcap > 0)
            std::fprintf(f, "  \"quantum_cap\": %d,\n", qcap);
        std::fprintf(f, "  \"cells\": [\n");
        for (std::size_t i = 0; i < keys.size(); ++i) {
            std::fprintf(
                f,
                "    {\"pattern\": \"%s\", \"tasks\": %d, "
                "\"policy\": \"%s\",\n",
                workload::arrivalPatternName(keys[i].pattern),
                keys[i].tasks, keys[i].policy.c_str());
            const bool qmeasured = run_quantum && qindex[i] >= 0;
            const char *sep = "";
            if (qmeasured) {
                writeJsonSide(
                    f, "quantum",
                    qres[static_cast<std::size_t>(qindex[i])],
                    serial ? qtimes.walls[static_cast<std::size_t>(
                                 qindex[i])]
                           : 0.0);
                sep = ",\n";
            } else if (run_quantum) {
                bool extrap = false;
                std::fprintf(
                    f,
                    "      \"quantum_extrapolated\": "
                    "{\"wall_s\": %.6f, \"cap\": %d}",
                    quantumWall(i, extrap), qcap);
                sep = ",\n";
            }
            if (run_event) {
                std::fputs(sep, f);
                writeJsonSide(f, "event", eres[i],
                              serial ? etimes.walls[i] : 0.0);
                const double ew = serial ? etimes.walls[i] : 0.0;
                if (eres[i].simSteps > 0)
                    std::fprintf(
                        f, ",\n      \"event_ns_per_step\": %.3f",
                        ew * 1e9 /
                            static_cast<double>(eres[i].simSteps));
            }
            if (both && qmeasured) {
                const auto &qr =
                    qres[static_cast<std::size_t>(qindex[i])];
                const double qw =
                    serial ? qtimes.walls[static_cast<std::size_t>(
                                 qindex[i])]
                           : 0.0;
                const double ew = serial ? etimes.walls[i] : 0.0;
                std::fprintf(
                    f,
                    ",\n      \"speedup\": %.3f, "
                    "\"step_ratio\": %.3f, \"sla_delta\": %.6f",
                    ew > 0.0 ? qw / ew : 0.0,
                    static_cast<double>(qr.simSteps) /
                        static_cast<double>(eres[i].simSteps),
                    eres[i].metrics.slaRate - qr.metrics.slaRate);
            } else if (both) {
                bool extrap = false;
                const double qw = quantumWall(i, extrap);
                const double ew = serial ? etimes.walls[i] : 0.0;
                std::fprintf(f,
                             ",\n      \"speedup_extrapolated\": "
                             "%.3f",
                             ew > 0.0 ? qw / ew : 0.0);
            }
            std::fprintf(f, "}%s\n",
                         i + 1 < keys.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        if (both) {
            // Per-tier speedup-vs-scale summary: the flat-cost claim
            // the event kernel makes is that this column does not
            // collapse as traces grow.
            std::fprintf(f, "  \"speedup_vs_scale\": [\n");
            for (std::size_t k = 0; k < tasks_list.size(); ++k) {
                const int tasks = tasks_list[k];
                double qsum = 0.0, esum = 0.0;
                bool any_extrap = false;
                for (std::size_t i = 0; i < keys.size(); ++i) {
                    if (keys[i].tasks != tasks)
                        continue;
                    bool extrap = false;
                    qsum += quantumWall(i, extrap);
                    any_extrap = any_extrap || extrap;
                    esum += serial ? etimes.walls[i] : 0.0;
                }
                std::fprintf(
                    f,
                    "    {\"tasks\": %d, \"quantum_wall_s\": %.6f, "
                    "\"event_wall_s\": %.6f, \"speedup\": %.3f, "
                    "\"extrapolated\": %s}%s\n",
                    tasks, qsum, esum,
                    esum > 0.0 ? qsum / esum : 0.0,
                    any_extrap ? "true" : "false",
                    k + 1 < tasks_list.size() ? "," : "");
            }
            std::fprintf(f, "  ],\n");
        }
        std::fprintf(f, "  \"total\": {");
        if (run_quantum)
            std::fprintf(f, "\"quantum_wall_s\": %.6f%s", qwall,
                         run_event ? ", " : "");
        if (run_event)
            std::fprintf(f, "\"event_wall_s\": %.6f", ewall);
        if (both)
            std::fprintf(f, ", \"speedup\": %.3f",
                         ewall > 0.0 ? qwall / ewall : 0.0);
        std::fprintf(f, "}\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json.c_str());
    }
    return 0;
}
