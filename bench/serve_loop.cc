/**
 * @file
 * Closed-loop serving study: does MoCA's contention-aware SLA lead
 * survive when the control loop fights back?  Every other results
 * family replays open-loop arrival traces; here K closed-loop clients
 * (serve/serve.h) issue requests reactively from completions through
 * admission control, with optional SoC failure injection, so retry
 * storms and shed-vs-queue tradeoffs feed back into the offered
 * load.
 *
 * Three sweep families share one grid:
 *   - clients:   client-count axis (offered-load ramp), always-admit,
 *                no failures;
 *   - admission: admission-policy axis (always / queue-cap /
 *                SLO-budget token bucket) at a fixed population;
 *   - failures:  fleet failure-rate axis (per Gcycle) at a fixed
 *                population, in-flight policy configurable.
 * Each scenario runs every selected per-SoC policy x dispatcher;
 * the summary table reports the reference policy's (moca) SLA and
 * goodput margins over the baselines per scenario.
 *
 * `--cluster-jobs N` shards the fleet across N conservative-PDES
 * workers; every emitted number is bit-identical for every N — CI
 * gates this by comparing every field of the `timing=0` JSON of
 * `--cluster-jobs 1` vs `4`, failure injection included.  The fleet flags, cell loop,
 * telemetry export and phase report are cluster_scale's too (the
 * bench harness, exp::FleetOptions).
 *
 * Telemetry (src/obs): `--trace-out FILE` exports one cell as a
 * Chrome trace_event JSON — SoC job spans, PDES epoch spans, and
 * front-end shed/defer/fail/recover instants on one timeline.  The
 * exported cell is the first one with a nonzero fail rate (so the
 * fail/recover story is visible), falling back to the first cell.
 * `--sample-every N` enables per-SoC sim-time sampling
 * (the traced cell's sampled series ride along into the trace as
 * counter tracks).  Observational only: emitted metrics are
 * bit-identical with or without telemetry.
 *
 * Usage: serve_loop [socs=4] [clients=4,16,64] [base-clients=16]
 *                   [rpc=24] [think=4.0] [timeout-scale=6.0]
 *                   [retries=3] [fail-rates=0,100,400]
 *                   [downtime=2e6] [inflight=requeue|drop]
 *                   [control-quantum=50000] [seed=S] [timing=0|1]
 *                   [--cluster-jobs N] [--policy SPEC[,...]]
 *                   [--dispatcher SPEC[,...]] [--admission SPEC[,...]]
 *                   [--list-admission] [--jobs N] [--json PATH]
 *                   [--trace-out FILE] [--sample-every N]
 *                   [kernel=quantum|event] ...
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "common/json.h"
#include "common/log.h"
#include "common/table.h"
#include "common/text.h"
#include "exp/matrix.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"
#include "obs/capture.h"
#include "serve/admission.h"
#include "serve/serve.h"

using namespace moca;

namespace {

struct Cell
{
    std::string family;   ///< "clients" / "admission" / "failures".
    std::string scenario; ///< Axis value label.
    std::string dispatcher;
    std::string policy;
    serve::ServeConfig cfg;
    serve::ServeResult result;
    double wall = 0.0;
};

/** One scenario axis point before the policy x dispatcher expansion. */
struct Scenario
{
    std::string family;
    std::string label;
    int clients = 0;
    std::string admission;
    double failRate = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    const exp::FleetOptions fleet = exp::fleetOptionsFromArgs(args);
    const sim::SocConfig &base = fleet.soc;
    const auto policies = exp::specsFromArgs<exp::PolicyRegistry>(
        args, {"prema", "planaria", "moca"});
    const auto dispatchers =
        exp::specsFromArgs<cluster::DispatcherRegistry>(
            args, {"rr", "qos-aware"});
    const auto admissions = exp::specsFromArgs<serve::AdmissionRegistry>(
        args,
        {"always", "queue-cap:depth=4", "slo-budget:rate=4,burst=8"});

    const int socs = static_cast<int>(args.getInt("socs", 4));
    const auto clients_list = parseIntList(
        "clients", args.getString("clients", "4,16,64"));
    const int base_clients =
        static_cast<int>(args.getInt("base-clients", 16));
    const int rpc = static_cast<int>(args.getInt("rpc", 24));
    const double think = args.getDouble("think", 4.0);
    const double timeout_scale =
        args.getDouble("timeout-scale", 6.0);
    const int retries = static_cast<int>(args.getInt("retries", 3));
    const auto fail_rates = parseDoubleList(
        "fail-rates", args.getString("fail-rates", "0,100,400"));
    const double downtime = args.getDouble("downtime", 2e6);
    const auto inflight = serve::inflightPolicyFromName(
        args.getString("inflight", "requeue"));
    const auto quantum = static_cast<Cycles>(
        args.getInt("control-quantum", 50'000));
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const std::string json = args.getString("json", "");
    args.requireAllRead();

    std::printf("== serve_loop: closed-loop serving "
                "(socs=%d rpc=%d timeout-scale=%.1f inflight=%s "
                "seed=%llu jobs=%d cluster-jobs=%d) ==\n\n",
                socs, rpc, timeout_scale,
                serve::inflightPolicyName(inflight),
                static_cast<unsigned long long>(seed),
                exp::resolveJobs(fleet.sweep.jobs), fleet.clusterJobs);
    exp::printSocBanner(base);

    std::vector<Scenario> scenarios;
    for (int c : clients_list) {
        Scenario s;
        s.family = "clients";
        s.label = strprintf("clients=%d", c);
        s.clients = c;
        s.admission = admissions.front();
        scenarios.push_back(std::move(s));
    }
    for (const auto &adm : admissions) {
        Scenario s;
        s.family = "admission";
        s.label = adm;
        s.clients = base_clients;
        s.admission = adm;
        scenarios.push_back(std::move(s));
    }
    for (double rate : fail_rates) {
        Scenario s;
        s.family = "failures";
        s.label = strprintf("fail-rate=%g", rate);
        s.clients = base_clients;
        s.admission = admissions.front();
        s.failRate = rate;
        scenarios.push_back(std::move(s));
    }

    // Scenario-major, then dispatcher, then policy — the margin
    // tables below index into this layout.
    std::vector<Cell> cells;
    for (const auto &s : scenarios) {
        for (const auto &dispatcher : dispatchers) {
            for (const auto &policy : policies) {
                Cell cell;
                cell.family = s.family;
                cell.scenario = s.label;
                cell.dispatcher = dispatcher;
                cell.policy = policy;
                serve::ServeConfig sc;
                sc.soc = base;
                sc.numSocs = socs;
                sc.policy = policy;
                sc.dispatcher = dispatcher;
                sc.admission = s.admission;
                sc.dispatcherSeed = seed;
                sc.jobs = fleet.clusterJobs;
                sc.controlQuantum = quantum;
                sc.clients.numClients = s.clients;
                sc.clients.requestsPerClient = rpc;
                sc.clients.thinkFactor = think;
                sc.clients.timeoutScale = timeout_scale;
                sc.clients.maxRetries = retries;
                sc.clients.seed = seed;
                sc.failures.rate = s.failRate;
                sc.failures.meanDowntime = downtime;
                sc.failures.inflight = inflight;
                sc.failures.seed = seed + 6;
                sc.profile = fleet.recordWall;
                cell.cfg = sc;
                cells.push_back(std::move(cell));
            }
        }
    }

    // Telemetry export: one capture bag on the first cell whose
    // scenario injects failures (the interesting timeline), else
    // cell 0; written by that cell's coordinator alone.
    obs::Capture capture;
    std::size_t capture_idx = cells.size();
    if (!fleet.traceOut.empty() && !cells.empty()) {
        capture_idx = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].cfg.failures.rate > 0.0) {
                capture_idx = i;
                break;
            }
        }
        cells[capture_idx].cfg.capture = &capture;
    }

    std::printf("running %zu serving cells...\n\n", cells.size());
    const double total_wall = exp::runTimedCells(
        fleet, cells,
        [](Cell &cell, std::size_t) {
            cell.result = serve::runServe(cell.cfg);
        },
        [](const Cell &cell) {
            return strprintf("%s %s %s %s", cell.family.c_str(),
                             cell.scenario.c_str(),
                             cell.dispatcher.c_str(),
                             cell.policy.c_str());
        });

    Table t({"family", "scenario", "dispatcher", "policy", "SLA",
             "goodput/s", "succ", "shed", "retry", "tmo", "p99n",
             "clat-p99 (Mcyc)", "upSoCs", "fails", "wall (s)"});
    for (const auto &cell : cells) {
        const auto &r = cell.result;
        t.row()
            .cell(cell.family)
            .cell(cell.scenario)
            .cell(cell.dispatcher)
            .cell(cell.policy)
            .cell(r.cluster.slaRate, 3)
            .cell(r.cluster.goodput, 0)
            .cell(r.successRate, 3)
            .cell(r.cluster.shedRate, 3)
            .cell(r.cluster.retryRate, 3)
            .cell(r.cluster.timeoutRate, 3)
            .cell(r.cluster.normLatency.p99, 2)
            .cell(r.clientLatency.p99 / 1e6, 2)
            .cell(r.meanUpSocs, 2)
            .cell(static_cast<long long>(r.failEvents))
            .cell(cell.wall, 2);
    }
    t.print("closed-loop serving sweep (SLA/goodput count "
            "client-observed responses only; shed/retry/tmo are the "
            "control-loop outcome rates; clat-p99: client-observed "
            "latency incl. backoff)");

    // ---- reference-vs-baseline margins per scenario -----------------
    const std::string ref = exp::referencePolicy(policies);
    const std::size_t P = policies.size();
    const std::size_t D = dispatchers.size();
    auto cellAt = [&](std::size_t si, std::size_t di,
                      std::size_t pi) -> const Cell & {
        return cells[(si * D + di) * P + pi];
    };
    struct Margin
    {
        const Cell *refCell = nullptr;
        std::vector<const Cell *> others;
    };
    std::vector<Margin> margins;
    if (P > 1) {
        Table m({"family", "scenario", "dispatcher", ref + " SLA",
                 ref + " goodput/s", "best-other SLA",
                 "SLA margin", "goodput margin"});
        for (std::size_t si = 0; si < scenarios.size(); ++si) {
            for (std::size_t di = 0; di < D; ++di) {
                Margin mg;
                for (std::size_t pi = 0; pi < P; ++pi) {
                    const Cell &c = cellAt(si, di, pi);
                    if (c.policy == ref)
                        mg.refCell = &c;
                    else
                        mg.others.push_back(&c);
                }
                if (mg.refCell == nullptr)
                    continue;
                double best_sla = 0.0, best_goodput = 0.0;
                for (const Cell *o : mg.others) {
                    if (o->result.cluster.slaRate > best_sla)
                        best_sla = o->result.cluster.slaRate;
                    if (o->result.cluster.goodput > best_goodput)
                        best_goodput = o->result.cluster.goodput;
                }
                const auto &rr = mg.refCell->result.cluster;
                m.row()
                    .cell(mg.refCell->family)
                    .cell(mg.refCell->scenario)
                    .cell(mg.refCell->dispatcher)
                    .cell(rr.slaRate, 3)
                    .cell(rr.goodput, 0)
                    .cell(best_sla, 3)
                    .cell(exp::marginRatio(rr.slaRate, best_sla, 1e-3), 2)
                    .cell(exp::marginRatio(rr.goodput, best_goodput,
                                           1e-3),
                          2);
                margins.push_back(std::move(mg));
            }
        }
        m.print(strprintf("%s vs best baseline per scenario (margin "
                          "= %s / best other)",
                          ref.c_str(), ref.c_str()));
    }
    std::printf("\ntotal wall: %.2f s\n", total_wall);

    if (fleet.recordWall) {
        cluster::PhaseBreakdown phases;
        for (const auto &cell : cells)
            phases += cell.result.cluster.phases;
        std::fputs(exp::phaseReport("serving phase profile (all cells)",
                                    phases, "coordinator")
                       .c_str(),
                   stdout);
    }

    if (capture_idx < cells.size()) {
        const Cell &traced = cells[capture_idx];
        inform("trace-out: exporting cell %s %s %s %s",
               traced.family.c_str(), traced.scenario.c_str(),
               traced.dispatcher.c_str(), traced.policy.c_str());
        exp::writeFleetTelemetry(fleet.traceOut, "", capture);
    }

    std::vector<exp::Record> records;
    for (const auto &cell : cells) {
        const auto &r = cell.result;
        const auto &c = r.cluster;
        records.push_back(
            {{"kind", "cell"}, {"family", cell.family},
             {"scenario", cell.scenario}, {"dispatcher", cell.dispatcher},
             {"policy", cell.policy}, {"requests", r.requests},
             {"attempts", r.attempts}, {"responses", r.responses},
             {"give_ups", r.giveUps}, {"timeouts", r.timeouts},
             {"retries", r.retries}, {"shed", r.shed},
             {"deferrals", r.deferrals}, {"orphans", r.orphans},
             {"requeued", r.requeued}, {"lost_jobs", r.lostJobs},
             {"fail_events", r.failEvents},
             {"recover_events", r.recoverEvents},
             {"success_rate", jsonFixed(r.successRate, 6)},
             {"sla_rate", jsonFixed(c.slaRate, 6)},
             {"sla_rate_high", jsonFixed(c.slaRateHigh, 6)},
             {"goodput", jsonFixed(c.goodput, 4)},
             {"shed_rate", jsonFixed(c.shedRate, 6)},
             {"retry_rate", jsonFixed(c.retryRate, 6)},
             {"timeout_rate", jsonFixed(c.timeoutRate, 6)},
             {"norm_p50", jsonFixed(c.normLatency.p50, 4)},
             {"norm_p99", jsonFixed(c.normLatency.p99, 4)},
             {"client_p50", jsonFixed(r.clientLatency.p50, 1)},
             {"client_p99", jsonFixed(r.clientLatency.p99, 1)},
             {"stp", jsonFixed(c.stp, 6)}, {"makespan", c.makespan},
             {"balance_cv", jsonFixed(c.balanceCv, 4)},
             {"epochs", c.epochs},
             {"mean_up_socs", jsonFixed(r.meanUpSocs, 4)},
             {"end_cycle", r.endCycle},
             {"wall_s", jsonFixed(cell.wall, 6)}});
    }
    // One `margin` record per (scenario, dispatcher, baseline policy).
    for (const Margin &mg : margins) {
        const auto &rr = mg.refCell->result.cluster;
        for (const Cell *other : mg.others) {
            const auto &oc = other->result.cluster;
            records.push_back(
                {{"kind", "margin"}, {"family", mg.refCell->family},
                 {"scenario", mg.refCell->scenario},
                 {"dispatcher", mg.refCell->dispatcher}, {"ref", ref},
                 {"vs", other->policy},
                 {"ref_sla", jsonFixed(rr.slaRate, 6)},
                 {"ref_goodput", jsonFixed(rr.goodput, 4)},
                 {"vs_sla", jsonFixed(oc.slaRate, 6)},
                 {"vs_goodput", jsonFixed(oc.goodput, 4)},
                 {"sla_ratio", jsonFixed(exp::marginRatio(
                                   rr.slaRate, oc.slaRate, 1e-3), 4)},
                 {"goodput_ratio", jsonFixed(exp::marginRatio(
                                       rr.goodput, oc.goodput, 1e-3), 4)}});
        }
    }
    records.push_back(
        {{"kind", "total"},
         {"wall_s", jsonFixed(fleet.timing ? total_wall : 0.0, 6)}});
    exp::writeRecords(
        json,
        exp::runMeta("serve_loop", fleet.sweep.jobs,
                     {{"socs", socs}, {"rpc", rpc},
                      {"think_factor", jsonFixed(think, 3)},
                      {"timeout_scale", jsonFixed(timeout_scale, 3)},
                      {"retries", retries},
                      {"downtime", jsonFixed(downtime, 1)},
                      {"inflight", serve::inflightPolicyName(inflight)},
                      {"control_quantum", quantum}, {"seed", seed},
                      {"kernel", sim::simKernelName(base.kernel)},
                      {"cluster_jobs", fleet.clusterJobs}}),
        records);
    return 0;
}
