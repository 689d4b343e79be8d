#include "workloads.h"

#include <cmath>
#include <ctime>
#include <functional>

#include "cluster/cluster.h"
#include "common/log.h"
#include "common/walltime.h"
#include "exp/matrix.h"
#include "exp/oracle.h"
#include "exp/scenario.h"
#include "exp/sweep/sweep.h"
#include "serve/serve.h"

namespace perfbench {

using namespace moca;

namespace {

// Full input sizes: one run takes one to two CPU seconds, so a 20 s
// benchmark run holds ten or more repetitions.  fleet-rr runs on two
// PDES workers: with four plus the coordinator the threads
// oversubscribe a 4-vCPU host and CPU time stops being steady.
constexpr int kSocMocaTasks = 4000;
constexpr int kFidelityTasksPerCell = 60;
constexpr int kFleetSocs = 16;
constexpr int kFleetJobs = 2;
constexpr int kFleetTasks = 3000;
constexpr int kServeSocs = 8;
constexpr int kServeClients = 32;
constexpr int kServeRequestsPerClient = 112;

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

int
scaled(int n, double scale)
{
    return std::max(1, static_cast<int>(std::lround(n * scale)));
}

sim::SocConfig
socConfig(const RunParams &p)
{
    sim::SocConfig cfg; // Table II
    cfg.kernel = p.kernel;
    cfg.memModel = p.timed ? timed("flat") : "flat";
    return cfg;
}

std::string
spec(const RunParams &p, const std::string &inner)
{
    return p.timed ? timed(inner) : inner;
}

/** Times the simulation proper: wall and CPU, all threads. */
struct SimTimer
{
    WallTimer wall;
    double cpu0 = cpuSeconds();

    void stop(Outcome &o) const
    {
        o.runSec += wall.seconds();
        o.cpuSec += cpuSeconds() - cpu0;
    }
};

/** Fill the oracle's memo for `models` on one tile (SLA targets,
 *  arrival calibration) and on the full SoC (metrics), from cold. */
void
warmOracle(const std::vector<dnn::ModelId> &models,
           const sim::SocConfig &cfg)
{
    for (const auto id : models) {
        exp::isolatedLatency(id, 1, cfg);
        exp::isolatedLatency(id, cfg.numTiles, cfg);
    }
}

/** One single-SoC cell: generate the trace, run it under MoCA. */
exp::ScenarioResult
runCell(const RunParams &p, const workload::TraceConfig &tc,
        const sim::SocConfig &cfg, Outcome &o)
{
    WallTimer setup;
    warmOracle(workload::workloadSetModels(tc.set), cfg);
    const auto specs = exp::makeTrace(tc, cfg);
    auto policy = exp::makePolicy(spec(p, "moca"), cfg);
    o.setupSec += setup.seconds();
    if (p.setupOnly)
        return {};
    // Oracle runs during set-up go through the wrappers too; they are
    // set-up work, not the measured simulation.
    takeLayerTotals();

    SimTimer t;
    auto r = exp::runTrace(*policy, "moca", specs, tc, cfg);
    t.stop(o);
    policy.reset();
    o.layers += takeLayerTotals();

    o.submitted += specs.size();
    o.completed += r.jobs.size();
    o.simulated += r.jobs.size();
    o.steps += r.simSteps;
    return r;
}

Outcome
socMoca(const RunParams &p)
{
    Outcome o;
    exp::clearOracleCache();
    workload::TraceConfig tc;
    tc.set = workload::WorkloadSet::C;
    tc.qos = workload::QosLevel::Medium;
    tc.arrivals = workload::ArrivalPattern::Poisson;
    tc.loadFactor = 0.8;
    tc.numTasks = scaled(kSocMocaTasks, p.scale);
    tc.seed = p.seed;
    const auto r = runCell(p, tc, socConfig(p), o);
    o.sla = r.metrics.slaRate;
    o.stp = r.metrics.stp;
    return o;
}

Outcome
socFidelity(const RunParams &p)
{
    Outcome o;
    exp::clearOracleCache();
    const auto &cells = exp::matrixCells();
    for (std::size_t c = 0; c < cells.size(); ++c) {
        workload::TraceConfig tc;
        tc.set = cells[c].first;
        tc.qos = cells[c].second;
        tc.loadFactor = 0.8;
        tc.numTasks = scaled(kFidelityTasksPerCell, p.scale);
        // Independent arrivals per cell.
        tc.seed = exp::deriveCellSeed(p.seed, c);
        double sla[2], stp[2];
        const sim::SimKernel kernels[2] = {sim::SimKernel::Quantum,
                                           sim::SimKernel::Event};
        for (int k = 0; k < 2; ++k) {
            RunParams pk = p;
            pk.kernel = kernels[k];
            const auto r = runCell(pk, tc, socConfig(pk), o);
            sla[k] = r.metrics.slaRate;
            stp[k] = r.metrics.stp;
        }
        if (p.setupOnly)
            continue;
        o.sla += sla[1];
        o.stp += stp[1];
        o.slaErr += std::fabs(sla[1] - sla[0]);
        o.stpErrPct += 100.0 * std::fabs(stp[1] - stp[0]) / stp[0];
    }
    const double n = static_cast<double>(cells.size());
    o.sla /= n;
    o.stp /= n;
    o.slaErr /= n;
    o.stpErrPct /= n;
    return o;
}

void
fillFleet(const cluster::ClusterResult &r, Outcome &o)
{
    for (const auto &share : r.perSoc)
        o.simulated += static_cast<std::uint64_t>(share.metrics.numJobs);
    o.sla = r.slaRate;
    o.stp = r.stp;
    o.steps = r.simSteps;
    o.epochs = r.epochs;
    o.shardAdvanceSec = r.phases.shardAdvanceSec;
    o.barrierWaitSec = r.phases.barrierWaitSec;
    o.coordinatorSec = r.phases.dispatchSec;
}

Outcome
fleetRr(const RunParams &p)
{
    Outcome o;
    const sim::SocConfig soc = socConfig(p);

    WallTimer setup;
    exp::clearOracleCache();
    cluster::SynthConfig synth;
    synth.process = cluster::ArrivalProcess::Poisson;
    synth.numTasks = scaled(kFleetTasks, p.scale);
    synth.set = workload::WorkloadSet::C;
    synth.loadFactor = 0.8;
    synth.fleetTiles = kFleetSocs * soc.numTiles;
    synth.seed = p.seed;
    warmOracle(workload::workloadSetModels(synth.set), soc);
    const auto tasks = cluster::synthesizeTasks(
        synth, [&](dnn::ModelId id) {
            return exp::isolatedLatency(id, 1, soc);
        });
    auto cfg = cluster::ClusterConfig::homogeneous(kFleetSocs, soc);
    cfg.policy = spec(p, "moca");
    cfg.dispatcher = spec(p, "rr");
    cfg.dispatcherSeed = p.seed;
    cfg.jobs = p.jobs > 0 ? p.jobs : kFleetJobs;
    cfg.profile = p.timed;
    o.setupSec = setup.seconds();
    if (p.setupOnly)
        return o;
    takeLayerTotals();

    SimTimer t;
    const auto r = cluster::runCluster(cfg, tasks);
    t.stop(o);
    o.layers = takeLayerTotals();

    o.submitted = tasks.size();
    fillFleet(r, o);
    o.completed = o.simulated;
    return o;
}

Outcome
serveChurn(const RunParams &p)
{
    Outcome o;
    serve::ServeConfig cfg;
    cfg.soc = socConfig(p);
    cfg.numSocs = kServeSocs;
    cfg.policy = spec(p, "moca");
    cfg.dispatcher = spec(p, "p2c");
    cfg.admission = p.timed ? timed("queue-cap") : kAdmissionSpec;
    cfg.dispatcherSeed = p.seed;
    cfg.jobs = p.jobs > 0 ? p.jobs : 1;
    cfg.profile = p.timed;
    cfg.clients.numClients = kServeClients;
    cfg.clients.requestsPerClient =
        scaled(kServeRequestsPerClient, p.scale);
    cfg.clients.thinkFactor = 2.0;
    cfg.clients.timeoutScale = 6.0;
    cfg.clients.maxRetries = 3;
    cfg.clients.set = workload::WorkloadSet::C;
    cfg.clients.seed = p.seed;
    cfg.failures.rate = 200.0;
    cfg.failures.meanDowntime = 2e6;
    cfg.failures.inflight = serve::InflightPolicy::Requeue;
    cfg.failures.seed = p.seed + 1;

    // The request population is drawn inside runServe from the
    // oracle; set-up is filling that oracle from cold.
    WallTimer setup;
    exp::clearOracleCache();
    warmOracle(workload::workloadSetModels(cfg.clients.set), cfg.soc);
    o.setupSec = setup.seconds();
    if (p.setupOnly)
        return o;
    takeLayerTotals();

    SimTimer t;
    const auto r = serve::runServe(cfg);
    t.stop(o);
    o.layers = takeLayerTotals();

    fillFleet(r.cluster, o);
    o.submitted = r.requests;
    o.completed = r.responses + r.giveUps;
    o.requests = r.requests;
    o.attempts = r.attempts;
    o.responses = r.responses;
    o.giveUps = r.giveUps;
    o.retries = r.retries;
    o.timeouts = r.timeouts;
    o.requeued = r.requeued;
    o.orphans = r.orphans;
    return o;
}

} // namespace

bool
Outcome::sameSimulation(const Outcome &o) const
{
    return submitted == o.submitted && completed == o.completed &&
        simulated == o.simulated && sla == o.sla && stp == o.stp &&
        steps == o.steps && epochs == o.epochs && slaErr == o.slaErr &&
        stpErrPct == o.stpErrPct && requests == o.requests &&
        attempts == o.attempts && responses == o.responses &&
        giveUps == o.giveUps && retries == o.retries &&
        timeouts == o.timeouts && requeued == o.requeued &&
        orphans == o.orphans;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "soc-moca", "soc-fidelity", "fleet-rr", "serve-churn"};
    return names;
}

Outcome
runWorkload(const std::string &name, const RunParams &p)
{
    if (name == "soc-moca")
        return socMoca(p);
    if (name == "soc-fidelity")
        return socFidelity(p);
    if (name == "fleet-rr")
        return fleetRr(p);
    if (name == "serve-churn")
        return serveChurn(p);
    fatal("unknown workload '%s'", name.c_str());
}

std::string
checkOutcome(const Outcome &o)
{
    if (o.submitted == 0)
        return "no tasks were submitted";
    if (o.completed != o.submitted)
        return strprintf("%llu of %llu tasks completed",
                         static_cast<unsigned long long>(o.completed),
                         static_cast<unsigned long long>(o.submitted));
    if (!(o.sla >= 0.0 && o.sla <= 1.0))
        return strprintf("SLA %.17g is outside [0, 1]", o.sla);
    if (!(o.stp > 0.0))
        return strprintf("STP %.17g is not positive", o.stp);
    return "";
}

} // namespace perfbench
