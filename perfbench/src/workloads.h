/**
 * @file
 * The benchmark's four workloads.  Each builds its inputs from a seed,
 * runs the simulator once, and returns what the run simulated together
 * with the host time it took.  A run is a pure function of its
 * parameters in every simulated field, so repeated runs, traced runs
 * and runs on another PDES worker count must agree bit for bit.
 *
 *   soc-moca      one SoC, event kernel, MoCA, a long open-loop trace
 *   soc-fidelity  the Fig. 5 grid under MoCA on both kernels
 *   fleet-rr      runCluster: 16 SoCs, rr dispatcher, 2 PDES workers
 *   serve-churn   runServe: 8 SoCs, closed-loop clients, p2c,
 *                 failure injection with requeue, 1 PDES worker
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "layers.h"
#include "sim/config.h"

namespace perfbench {

/** Parameters of one workload run. */
struct RunParams
{
    std::uint64_t seed = 1;
    /** Route every layer through its timing wrapper (layers.h) and
     *  turn on the PDES phase profile. */
    bool timed = false;
    /** Stop after set-up: build the inputs, simulate nothing. */
    bool setupOnly = false;
    /** PDES workers; 0 keeps the workload's own count. */
    int jobs = 0;
    /** SoC kernel of the single-kernel workloads. */
    moca::sim::SimKernel kernel = moca::sim::SimKernel::Event;
    /** Input size as a share of the workload's full size. */
    double scale = 1.0;
};

/** What one run simulated and the host time it took. */
struct Outcome
{
    // --- simulated: a pure function of RunParams --------------------
    std::uint64_t submitted = 0; ///< Tasks (or requests) offered.
    std::uint64_t completed = 0; ///< Tasks finished (or resolved).
    std::uint64_t simulated = 0; ///< Tasks the SoCs executed.
    double sla = 0.0;            ///< SLA satisfaction (mean of cells).
    double stp = 0.0;            ///< STP (mean of cells).
    std::uint64_t steps = 0;     ///< Kernel steps, all SoCs.
    std::uint64_t epochs = 0;    ///< PDES epochs.
    /** Kernel fidelity (soc-fidelity): mean over cells of
     *  |SLA(event) - SLA(quantum)| and of the relative STP gap, %. */
    double slaErr = 0.0;
    double stpErrPct = 0.0;
    /** Serve front-end counters (serve-churn). */
    std::uint64_t requests = 0, attempts = 0, responses = 0,
                  giveUps = 0, retries = 0, timeouts = 0, requeued = 0,
                  orphans = 0;

    // --- host time ---------------------------------------------------
    double setupSec = 0.0; ///< Trace/oracle generation, construction.
    double runSec = 0.0;   ///< Wall time of the simulation proper.
    double cpuSec = 0.0;   ///< CPU time of the simulation, all threads.
    /** PDES phases (timed runs of the fleet workloads). */
    double shardAdvanceSec = 0.0, barrierWaitSec = 0.0,
           coordinatorSec = 0.0;
    /** Wrapped-layer counters of the simulation (timed runs). */
    LayerTotals layers;

    /** Every simulated field equals `o`'s, bit for bit. */
    bool sameSimulation(const Outcome &o) const;
};

/** The workload names, in the order BENCHMARK.json declares them. */
const std::vector<std::string> &workloadNames();

/** Run workload `name` once; fatal on an unknown name. */
Outcome runWorkload(const std::string &name, const RunParams &p);

/** The output checks of one run: every task completes (serve-churn:
 *  every request gets a response or gives up), SLA is in [0, 1] and
 *  STP is positive.  Returns an empty string or the first failure. */
std::string checkOutcome(const Outcome &o);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
