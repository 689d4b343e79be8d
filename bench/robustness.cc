/**
 * @file
 * Robustness study: the headline MoCA-over-baselines ratios must not
 * be artifacts of one random trace.  Sweeps (a) five seeds and (b)
 * three arrival processes (Poisson / uniform-jitter / bursty) on
 * Workload-C QoS-M, (c) compares the paper's layer-*block*
 * reconfiguration granularity against per-layer reconfiguration
 * (Sec. IV-D adopts blocks following Veltair), and (d) injects
 * seeded SoC failures into a small closed-loop serving fleet
 * (serve/serve.h) to check the ratios survive capacity churn.  The
 * 34 trace cells of (a)-(c) run as one grid on the sweep engine;
 * the (d) serving cells run on the same runIndexed pool.  Every ratio
 * is exp::marginRatio over exp::referencePolicy (moca when listed).
 *
 * Usage: robustness [tasks=N] [--policy SPEC[,SPEC...]]
 *                   [--list-policies] [--jobs N] [--csv PATH]
 *                   [--json PATH]
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "common/table.h"
#include "exp/matrix.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"
#include "serve/serve.h"

using namespace moca;

namespace {

/**
 * The reference policy's SLA and its margin over every other selected
 * policy in one scenario; `sla[p]` is the SLA rate of `policies[p]`.
 */
struct Ratios
{
    double refSla = 0.0;
    std::vector<double> vsOthers; ///< ref/other, others in list order.
};

Ratios
toRatios(const std::vector<double> &sla,
         const std::vector<std::string> &policies, const std::string &ref)
{
    Ratios r;
    r.refSla = sla[std::find(policies.begin(), policies.end(), ref) -
                   policies.begin()];
    for (std::size_t p = 0; p < policies.size(); ++p)
        if (policies[p] != ref)
            r.vsOthers.push_back(exp::marginRatio(r.refSla, sla[p], 1e-3));
    return r;
}

/** Header row for a ratio table: ref SLA + ref/other columns. */
std::vector<std::string>
ratioHeader(const std::string &axis,
            const std::vector<std::string> &policies,
            const std::string &ref)
{
    std::vector<std::string> h = {axis, ref + " SLA"};
    for (const auto &spec : policies)
        if (spec != ref)
            h.push_back(ref + "/" + spec);
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    const sim::SocConfig cfg = exp::socConfigFromArgs(args);
    const int tasks = static_cast<int>(args.getInt("tasks", 150));
    const auto policies = exp::specsFromArgs<exp::PolicyRegistry>(
        args, exp::allPolicySpecs());
    const std::string ref = exp::referencePolicy(policies);
    const exp::SweepOptions opts = exp::sweepOptionsFromArgs(args);
    const exp::SweepRunner runner(opts);
    const exp::OutputFiles out = exp::outputFilesFromArgs(args);
    args.requireAllRead();

    std::printf("== Robustness: seeds, arrival processes, reconfig "
                "granularity (Workload-C QoS-M, tasks=%d) ==\n\n",
                tasks);

    const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
    const std::vector<workload::ArrivalPattern> patterns = {
        workload::ArrivalPattern::Poisson,
        workload::ArrivalPattern::Uniform,
        workload::ArrivalPattern::Bursty,
    };
    const std::size_t per_scenario = policies.size();

    std::vector<exp::SweepCell> grid;

    // ---- (a) seed sweep: cells [0, 20) ------------------------------
    for (std::uint64_t seed : seeds) {
        workload::TraceConfig trace;
        trace.numTasks = tasks;
        trace.seed = seed;
        exp::appendPolicyCells(
            grid,
            strprintf("seed=%llu",
                      static_cast<unsigned long long>(seed)),
            policies, trace, cfg);
    }

    // ---- (b) arrival-pattern sweep: cells [20, 32) ------------------
    for (auto pattern : patterns) {
        workload::TraceConfig trace;
        trace.numTasks = tasks;
        trace.seed = 1;
        trace.arrivals = pattern;
        exp::appendPolicyCells(grid,
                               workload::arrivalPatternName(pattern),
                               policies, trace, cfg);
    }

    // ---- (c) reconfiguration granularity: cells [32, 34) ------------
    const std::size_t gran_base = grid.size();
    for (bool per_layer : {false, true}) {
        sim::SocConfig c2 = cfg;
        c2.layerBoundaryEvents = per_layer;
        workload::TraceConfig trace;
        trace.numTasks = tasks;
        trace.seed = 1;
        exp::SweepCell cell;
        cell.label = per_layer ? "per layer" : "layer block";
        cell.policy = ref;
        cell.trace = trace;
        cell.soc = c2;
        grid.push_back(std::move(cell));
    }

    const auto results = runner.run(grid);
    exp::writeSweepFiles(
        out,
        exp::runMeta("robustness", opts.jobs,
                     {{"kernel", sim::simKernelName(cfg.kernel)}}),
        grid, results);
    // Trace scenario k is results[k * per_scenario ...], policy order.
    auto scenarioRatios = [&](std::size_t k) {
        std::vector<double> sla;
        for (std::size_t p = 0; p < per_scenario; ++p)
            sla.push_back(results[k * per_scenario + p].metrics.slaRate);
        return toRatios(sla, policies, ref);
    };

    {
        Table t(ratioHeader("Seed", policies, ref));
        StatAccum first_ratio;
        for (std::size_t s = 0; s < seeds.size(); ++s) {
            const Ratios r = scenarioRatios(s);
            if (!r.vsOthers.empty())
                first_ratio.add(r.vsOthers.front());
            t.row().cell(static_cast<long long>(seeds[s]))
                .cell(r.refSla, 3);
            for (double v : r.vsOthers)
                t.cell(v, 2);
        }
        t.print("Seed sweep");
        if (first_ratio.count() > 0)
            std::printf("\n%s across seeds: mean %.2f, "
                        "stddev %.2f, min %.2f\n",
                        ratioHeader("", policies, ref)[2].c_str(),
                        first_ratio.mean(), first_ratio.stddev(),
                        first_ratio.min());
    }

    {
        Table t(ratioHeader("Arrivals", policies, ref));
        for (std::size_t p = 0; p < patterns.size(); ++p) {
            const Ratios r = scenarioRatios(seeds.size() + p);
            t.row().cell(workload::arrivalPatternName(patterns[p]))
                .cell(r.refSla, 3);
            for (double v : r.vsOthers)
                t.cell(v, 2);
        }
        t.print("Arrival-process sweep");
    }

    {
        Table t({"Granularity", ref + " SLA", "STP",
                 "Throttle reconfigs"});
        for (std::size_t g = 0; g < 2; ++g) {
            const auto &r = results[gran_base + g];
            t.row().cell(grid[gran_base + g].label)
                .cell(r.metrics.slaRate, 3).cell(r.metrics.stp, 2)
                .cell(static_cast<long long>(
                    r.totalThrottleReconfigs));
        }
        t.print("Reconfiguration granularity (Sec. IV-D)");
    }

    // ---- (d) failure injection: closed-loop serving under churn -----
    // A small closed-loop fleet (serve/serve.h) with seeded SoC
    // fail/recover events: the ratios must survive capacity churn,
    // not just trace resampling.  Rates are fleet-wide failures per
    // Gcycle; in-flight work on a failed SoC is requeued.
    {
        const std::vector<double> fail_rates = {0.0, 200.0, 800.0};
        std::vector<serve::ServeResult> serve_results(
            fail_rates.size() * policies.size());
        exp::SweepRunner::runIndexed(
            serve_results.size(), opts.jobs, [&](std::size_t i) {
                const std::size_t fr = i / policies.size();
                serve::ServeConfig sc;
                sc.soc = cfg;
                sc.numSocs = 2;
                sc.policy = policies[i % policies.size()];
                sc.clients.numClients = 8;
                sc.clients.requestsPerClient = 8;
                sc.clients.timeoutScale = 6.0;
                sc.failures.rate = fail_rates[fr];
                serve_results[i] = serve::runServe(sc);
            });

        std::vector<std::string> header =
            ratioHeader("Failures/Gcyc", policies, ref);
        header.push_back("fail events");
        header.push_back("requeued");
        Table t(header);
        for (std::size_t fr = 0; fr < fail_rates.size(); ++fr) {
            std::vector<double> sla;
            std::uint64_t fails = 0, requeued = 0;
            for (std::size_t p = 0; p < policies.size(); ++p) {
                const auto &sr = serve_results[fr * policies.size() + p];
                sla.push_back(sr.cluster.slaRate);
                fails += sr.failEvents;
                requeued += sr.requeued;
            }
            const Ratios r = toRatios(sla, policies, ref);
            t.row().cell(fail_rates[fr], 0).cell(r.refSla, 3);
            for (double v : r.vsOthers)
                t.cell(v, 2);
            t.cell(static_cast<long long>(fails))
                .cell(static_cast<long long>(requeued));
        }
        t.print("Closed-loop failure injection (serve/serve.h; "
                "fail events/requeued summed over the policy runs "
                "at each rate)");
    }
    return 0;
}
