/**
 * @file
 * Cluster fleet simulator API: co-simulates N independent `sim::Soc`
 * instances (homogeneous or heterogeneous configurations) with a
 * front-end `Dispatcher` deciding task placement at arrival time.
 *
 * Execution model.  SoCs share nothing — each owns its tiles, L2, and
 * DRAM channel — so between task arrivals every SoC evolves
 * independently.  runCluster hands its arrival-sorted task stream to
 * the fleet driver (serve/serve.h, which also runs the closed-loop
 * serving experiments): at each arrival the conservative-PDES engine
 * (cluster/parallel.h) advances every SoC to the arrival cycle, the
 * coordinator snapshots every SoC's load, asks the dispatcher for a
 * placement, and injects the task into the chosen SoC at its exact
 * dispatch cycle; after the last arrival the fleet drains to
 * completion.  A dispatcher that reads no SoC state (rr, random)
 * needs no fleet advanced to place a task, so the whole stream is
 * placed first and one engine epoch replays it — each SoC sees the
 * same advances and injections, without a barrier per arrival.  SoCs
 * are sharded across `ClusterConfig::jobs` workers and the run is
 * bit-identical for every jobs value, so a cluster run
 * is a pure function of (configs, dispatcher spec, task stream, seed)
 * — and a 1-SoC cluster replays the single-SoC scenario path
 * bit-identically.
 *
 * Results come back as a `ClusterResult`: fleet-level SLA rate,
 * p50/p95/p99 end-to-end latency, total STP, a per-SoC utilization /
 * load-balance breakdown, and the per-SoC metrics themselves.
 */

#ifndef MOCA_CLUSTER_CLUSTER_H
#define MOCA_CLUSTER_CLUSTER_H

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "cluster/workload.h"
#include "common/stats.h"
#include "metrics/metrics.h"
#include "sim/config.h"

namespace moca::obs {
struct Capture;
}

namespace moca::cluster {

/** Configuration of one cluster run. */
struct ClusterConfig
{
    /** Per-SoC configurations; size() is the fleet size. */
    std::vector<sim::SocConfig> socs;

    /** Per-SoC scheduling policy spec (exp::PolicyRegistry); every
     *  SoC runs its own instance. */
    std::string policy = "moca";

    /** Front-end dispatcher spec (DispatcherRegistry). */
    std::string dispatcher = "rr";

    /** Seed for randomized dispatchers (random, p2c). */
    std::uint64_t dispatcherSeed = 1;

    /**
     * Worker threads of the conservative-PDES engine that advances
     * the fleet between dispatch points (cluster/parallel.h).  SoCs
     * are sharded across workers; results are bit-identical for
     * every value (jobs=1 runs the same engine inline, threadless).
     * Must be >= 1 (fatal otherwise).
     */
    int jobs = 1;

    /**
     * Wall-clock phase profiling: copy the engine's phaseTotals and
     * the coordinator's dispatch time into ClusterResult::phases
     * (cluster/parallel.h).  Diagnostic only; leave off for timing=0
     * determinism baselines — the fields it fills are wall-clock and
     * would be nonzero.
     */
    bool profile = false;

    /**
     * Telemetry capture bag (obs/capture.h): when non-null the run
     * enables every SoC's TraceRecorder (stamped with its slot id),
     * records PDES epoch/stall spans, and copies out any sampled
     * timeseries.  Observational only — results are bit-identical
     * with or without it.  The capture is written by this run's
     * coordinator alone: never share one across concurrent cells.
     */
    obs::Capture *capture = nullptr;

    /** A homogeneous fleet of `n` copies of `soc`. */
    static ClusterConfig homogeneous(int n, const sim::SocConfig &soc);
};

/**
 * Execution profile of one fleet run (zeros unless
 * ClusterConfig::profile): where the run actually spent its time —
 * workers advancing SoC shards, workers parked at the epoch barrier,
 * and the coordinator placing/injecting tasks — and how many worker
 * releases it took.
 */
struct PhaseBreakdown
{
    double shardAdvanceSec = 0.0; ///< Workers advancing their SoCs.
    double barrierWaitSec = 0.0;  ///< Workers waiting at the barrier.
    double dispatchSec = 0.0;     ///< Coordinator placement+injection.
    /** Worker releases (EpochStats::barriers): one per epoch, or one
     *  per stream when the stream was replayed. */
    std::uint64_t barriers = 0;

    /** Sum another run's phases into this one (bench reports). */
    PhaseBreakdown &operator+=(const PhaseBreakdown &o)
    {
        shardAdvanceSec += o.shardAdvanceSec;
        barrierWaitSec += o.barrierWaitSec;
        dispatchSec += o.dispatchSec;
        barriers += o.barriers;
        return *this;
    }
};

/** Per-SoC share of a cluster run. */
struct SocShare
{
    int tasks = 0;          ///< Tasks the dispatcher placed here.
    metrics::RunMetrics metrics; ///< Per-SoC SLA/STP/fairness.
    Cycles makespan = 0;    ///< Cycle the SoC's last job finished.
    double dramBusyFraction = 0.0;
    std::uint64_t simSteps = 0;
};

/** Outcome of one cluster run. */
struct ClusterResult
{
    std::string dispatcher; ///< Dispatcher spec the run used.
    std::string policy;     ///< Per-SoC policy spec.
    int numSocs = 0;
    std::size_t numTasks = 0;

    double slaRate = 0.0;     ///< Fleet SLA satisfaction in [0, 1].
    double slaRateHigh = 0.0; ///< ... of the p-High priority group.

    /** End-to-end latency tails in cycles (queue wait + runtime). */
    PercentileSummary latency;
    /** ... normalized to each job's isolated full-SoC latency. */
    PercentileSummary normLatency;

    double stp = 0.0;    ///< Fleet system throughput (sum of per-SoC).
    Cycles makespan = 0; ///< Cycle the last job fleet-wide finished.

    /**
     * Goodput: completed-within-SLO tasks per second at the 1 GHz
     * Table II clock (SLA-met completions * 1e9 / makespan).  Under
     * the closed-loop serving layer (serve/serve.h) only client-
     * observed responses count — a completion whose client already
     * timed out is wasted work, not goodput.
     */
    double goodput = 0.0;

    /**
     * Serving-control-loop outcome rates, all fractions of the
     * attempts the front-end handled.  Always zero for runCluster
     * runs (there is no client to time out and no admission
     * controller to shed); closed-loop runServe runs fill them from
     * the driver's counters.
     */
    double shedRate = 0.0;    ///< Attempts rejected by admission.
    double retryRate = 0.0;   ///< Attempts that were client retries.
    double timeoutRate = 0.0; ///< Attempts whose client timed out.

    /**
     * Load-balance quality: coefficient of variation (stddev/mean) of
     * per-SoC placed-task counts.  0 = perfectly balanced; rises as
     * the dispatcher concentrates load.
     */
    double balanceCv = 0.0;

    std::uint64_t simSteps = 0; ///< Total kernel rounds, all SoCs.

    /**
     * Lookahead quality of the conservative-PDES fleet loop
     * (cluster/parallel.h): logical epochs (fleet horizons at which
     * some SoC was behind), mean SoCs advanced per epoch, and horizon
     * stalls (horizons at which no active SoC was unfinished and
     * behind — simultaneous arrivals or a drained fleet).  Identical
     * across ClusterConfig::jobs values, like everything else here,
     * and whether or not the stream was replayed; the worker releases
     * are PhaseBreakdown::barriers.
     */
    std::uint64_t epochs = 0;
    std::uint64_t horizonStalls = 0;
    double meanSocsStepped = 0.0;

    /** Wall-clock phase profile (zeros unless cfg.profile; excluded
     *  from timing=0 sinks like every wall-clock field). */
    PhaseBreakdown phases;

    std::vector<SocShare> perSoc;
};

/**
 * Run one cluster: place and execute `tasks` (sorted by arrival) on
 * the fleet described by `cfg`.  Fatal on empty fleets, unknown
 * policy/dispatcher specs, jobs < 1, or an unsorted task stream.
 * Defined in serve/serve.cc beside the fleet driver it wraps.
 */
ClusterResult runCluster(const ClusterConfig &cfg,
                         const std::vector<ClusterTask> &tasks);

} // namespace moca::cluster

#endif // MOCA_CLUSTER_CLUSTER_H
