/**
 * @file
 * The paper's evaluation (Sec. V) from one run of the 9-scenario
 * matrix (Workload-{A,B,C} x QoS-{L,M,H}) under every selected
 * policy:
 *
 *  - Table III: the workload-set composition;
 *  - Figure 5: SLA satisfaction rate, plus p50/p95/p99 tail latency;
 *  - Figure 6: SLA satisfaction by priority group (p-Low: 0-2,
 *    p-Mid: 3-8, p-High: 9-11);
 *  - Figure 7: system throughput (STP, Eq. 2);
 *  - Figure 8: fairness (Eq. 1, priority-weighted proportional
 *    progress, min-over-pairs).
 *
 * Figures 7 and 8 are normalized to Planaria as in the paper, or to
 * the first policy given when Planaria is not selected.  A closing
 * table sets MoCA's geomean and max margin over every other policy on
 * each metric next to the values the paper reports.
 *
 * Usage: paper_figs [tasks=N] [seed=S] [load=F] [qos_scale=F]
 *                   [--policy SPEC[,SPEC...]] [--list-policies]
 *                   [--jobs N] [verbose=1] [--csv PATH] [--json PATH]
 *                   ...
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "exp/matrix.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"

using namespace moca;

namespace {

using metrics::RunMetrics;

/** A metric of the paper-comparison table and the floor its ratios
 *  use (an SLA rate of 0 is real; STP and fairness stay positive). */
struct MarginMetric
{
    const char *name;
    double RunMetrics::*field;
    double floor;
};

const MarginMetric kMarginMetrics[] = {
    {"SLA", &RunMetrics::slaRate, 1e-3},
    {"p-High SLA", &RunMetrics::slaRateHigh, 1e-3},
    {"STP", &RunMetrics::stp, 1e-6},
    {"fairness", &RunMetrics::fairness, 1e-6},
};

/** MoCA's margin over a baseline as reported in the paper (Sec. V-A
 *  to V-D); "-" where the paper gives no number. */
struct PaperMargin
{
    const char *metric;
    const char *baseline;
    const char *geomean;
    const char *max;
};

const PaperMargin kPaperMargins[] = {
    {"SLA", "prema", "8.7", "18.1"},
    {"SLA", "static", "1.8", "2.4"},
    {"SLA", "planaria", "1.8", "3.9"},
    {"p-High SLA", "prema", "-", "9.9"},
    {"p-High SLA", "static", "-", "1.8"},
    {"p-High SLA", "planaria", "-", "4.7"},
    {"STP", "prema", "12.5", "20.5"},
    {"STP", "static", "1.7", "2.1"},
    {"STP", "planaria", "1.7", "2.3"},
    {"fairness", "prema", "1.8", "2.4"},
    {"fairness", "static", "1.07", "1.2"},
    {"fairness", "planaria", "1.2", "1.3"},
};

const PaperMargin *
paperMargin(const char *metric, const std::string &baseline)
{
    for (const auto &p : kPaperMargins)
        if (std::strcmp(p.metric, metric) == 0 && baseline == p.baseline)
            return &p;
    return nullptr;
}

void
printWorkloadSets()
{
    Table t({"Workload set", "Model size", "DNN models"});
    auto join = [](const std::vector<dnn::ModelId> &ids) {
        std::string s;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            s += dnn::modelIdName(ids[i]);
            if (i + 1 < ids.size())
                s += ", ";
        }
        return s;
    };
    t.row().cell("Workload-A").cell("Light")
        .cell(join(dnn::workloadSetA()));
    t.row().cell("Workload-B").cell("Heavy")
        .cell(join(dnn::workloadSetB()));
    t.row().cell("Workload-C").cell("Mixed")
        .cell(join(dnn::workloadSetC()));
    t.print("Table III: benchmark DNNs and workload sets");
}

std::string
scenarioName(const exp::MatrixCell &cell)
{
    return std::string(workload::workloadSetName(cell.set)) + " " +
        workload::qosLevelName(cell.qos);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    const sim::SocConfig cfg = exp::socConfigFromArgs(args);
    const auto policies = exp::specsFromArgs<exp::PolicyRegistry>(
        args, exp::allPolicySpecs());
    const exp::SweepOptions opts = exp::sweepOptionsFromArgs(args);

    exp::MatrixConfig mcfg;
    mcfg.numTasks = static_cast<int>(args.getInt("tasks", 250));
    mcfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    mcfg.loadFactor = args.getDouble("load", mcfg.loadFactor);
    mcfg.qosScale = args.getDouble("qos_scale", mcfg.qosScale);
    mcfg.policies = policies;
    const exp::OutputFiles out = exp::outputFilesFromArgs(args);
    args.requireAllRead();

    std::printf("== Paper figures: Table III, Figures 5-8 "
                "(tasks=%d seed=%llu load=%.2f jobs=%d) ==\n\n",
                mcfg.numTasks,
                static_cast<unsigned long long>(mcfg.seed),
                mcfg.loadFactor, exp::resolveJobs(opts.jobs));
    exp::printSocBanner(cfg);
    printWorkloadSets();

    const auto grid = exp::matrixGrid(mcfg, cfg);
    auto results = exp::SweepRunner(opts).run(grid);
    exp::writeSweepFiles(
        out,
        exp::runMeta("paper_figs", opts.jobs,
                     {{"kernel", sim::simKernelName(cfg.kernel)}}),
        grid, results);
    const auto matrix = exp::pivotMatrix(mcfg, std::move(results));

    std::vector<std::string> header = {"Scenario"};
    header.insert(header.end(), policies.begin(), policies.end());

    Table sla(header);
    for (const auto &cell : matrix) {
        sla.row().cell(scenarioName(cell));
        for (const auto &spec : policies)
            sla.cell(cell.result(spec).metrics.slaRate, 3);
    }
    sla.print("Figure 5: SLA satisfaction rate by scenario");

    // Tail latency per scenario: p50/p95/p99 of end-to-end latency
    // normalized to the isolated full-SoC latency (the same
    // normalization as meanNormLatency).  SLA rates hide the tail;
    // this is where policy differences at the 99th percentile show.
    Table tails(header);
    for (const auto &cell : matrix) {
        tails.row().cell(scenarioName(cell));
        for (const auto &spec : policies) {
            std::vector<double> norm;
            for (const auto &job : cell.result(spec).jobs) {
                const Cycles iso = exp::isolatedLatency(
                    dnn::modelIdFromName(job.spec.model->name()),
                    cfg.numTiles, cfg);
                norm.push_back(static_cast<double>(job.latency()) /
                               static_cast<double>(iso));
            }
            const PercentileSummary p = percentileSummary(norm);
            tails.cell(strprintf("%.1f/%.1f/%.1f", p.p50, p.p95,
                                 p.p99));
        }
    }
    tails.print("Tail latency by scenario "
                "(p50/p95/p99, normalized to isolated latency)");

    // Sec. V-B: all systems trend upward with priority; Planaria can
    // serve p-High worse than p-Mid on light models because
    // aggressive compute reclaiming costs migrations.
    Table prio({"Scenario", "Policy", "p-Low", "p-Mid", "p-High"});
    for (const auto &cell : matrix)
        for (const auto &r : cell.byPolicy)
            prio.row().cell(scenarioName(cell))
                .cell(r.policy)
                .cell(r.metrics.slaRateLow, 3)
                .cell(r.metrics.slaRateMid, 3)
                .cell(r.metrics.slaRateHigh, 3);
    prio.print("Figure 6: per-priority-group SLA satisfaction");

    const std::string norm =
        std::find(policies.begin(), policies.end(), "planaria") !=
            policies.end()
        ? "planaria"
        : policies.front();

    header.push_back("MoCA STP (abs)");
    Table stp(header);
    for (const auto &cell : matrix) {
        const double base = cell.result(norm).metrics.stp;
        stp.row().cell(scenarioName(cell));
        for (const auto &spec : policies)
            stp.cell(cell.result(spec).metrics.stp / base, 3);
        stp.cell(cell.has("moca") ? cell.result("moca").metrics.stp
                                  : 0.0, 2);
    }
    stp.print("Figure 7: STP normalized to " + norm);

    header.back() = "MoCA fairness (abs)";
    Table fairness(header);
    for (const auto &cell : matrix) {
        auto fair = [&](const std::string &spec) {
            return std::max(cell.result(spec).metrics.fairness, 1e-6);
        };
        fairness.row().cell(scenarioName(cell));
        for (const auto &spec : policies)
            fairness.cell(fair(spec) / fair(norm), 3);
        fairness.cell(cell.has("moca") ? fair("moca") : 0.0, 4);
    }
    fairness.print("Figure 8: fairness normalized to " + norm);

    const std::string ref = "moca";
    if (std::find(policies.begin(), policies.end(), ref) ==
            policies.end() || policies.size() < 2)
        return 0;
    Table s({"Metric", "MoCA vs.", "geomean", "max", "paper geomean",
             "paper max"});
    for (const auto &m : kMarginMetrics) {
        for (const auto &spec : policies) {
            if (spec == ref)
                continue;
            const exp::Margin got =
                exp::marginOver(matrix, ref, spec, m.field, m.floor);
            const PaperMargin *paper = paperMargin(m.name, spec);
            s.row().cell(m.name).cell(spec).cell(got.geomean, 2)
                .cell(got.max, 2)
                .cell(paper ? paper->geomean : "-")
                .cell(paper ? paper->max : "-");
        }
    }
    s.print("MoCA improvement vs. the paper (Sec. V-A to V-D)");
    return 0;
}
