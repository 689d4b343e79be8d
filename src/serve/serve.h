/**
 * @file
 * The fleet driver: ties the client population (serve/client.h),
 * admission control (serve/admission.h) and failure injection
 * (serve/failure.h) around the conservative-PDES fleet engine
 * (cluster/parallel.h) into one deterministic serving loop.  It is
 * the only fleet driver: cluster::runCluster (cluster/cluster.h) is
 * defined next to runServe and feeds the same loop a fixed-arrival
 * task stream.
 *
 * Execution model.  The front end keeps a single event queue —
 * client issues, retries, per-attempt timeouts, admission re-tries
 * of deferred requests, SoC fail/recover — ordered by (cycle, kind,
 * sequence).  Between events the fleet advances in
 * *control quanta*: the engine's epoch horizon is the earlier of the
 * next front-end event and now + controlQuantum, so completions are
 * harvested (in SoC index order) at deterministic boundaries and
 * client reactions — think time, then the next request — are
 * scheduled from them.  Arrivals are thus generated reactively from
 * completions, the defining property of a closed loop; every
 * front-end decision happens on the coordinator between epochs, so
 * the whole run is bit-identical for every ServeConfig::jobs value.
 * A control horizon at which every busy SoC is parked past it steps
 * nothing (a horizon stall), so the driver counts a run of them and
 * jumps over it at once.
 *
 * Capacity churn.  A fleet slot is Up (taking placements) or Failed
 * (frozen in the engine; its queue is lost).  Recovery swaps a
 * *fresh* SoC into the slot; the failed one's results, steps,
 * DRAM-busy time, trace events and sampled series are folded into
 * the slot and its simulator is freed.  The dispatcher and admission
 * policy only ever see the Up slots.
 *
 * Open loop.  runCluster replaces the client pool with its task
 * stream: fixed arrival cycles, no think time, no timeouts, no
 * retries, always-admit, no failures, and an unbounded control
 * quantum.  Every arrival is then one epoch barrier (a tied arrival
 * counts a horizon stall), and after the last arrival the fleet
 * drains.  When the dispatcher reads no SoC state
 * (cluster::Dispatcher::readsLoad), the coordinator skips those
 * barriers: it places every arrival first, and the drain is one
 * engine epoch that replays each SoC through the arrival horizons
 * (cluster::ParallelEngine::replay) — same results, same logical
 * epoch counts, one worker release.
 */

#ifndef MOCA_SERVE_SERVE_H
#define MOCA_SERVE_SERVE_H

#include <cstdint>
#include <string>

#include "cluster/cluster.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/failure.h"

namespace moca::serve {

/** Configuration of one closed-loop serving run. */
struct ServeConfig
{
    /** Per-SoC hardware/kernel configuration (homogeneous fleet). */
    sim::SocConfig soc;
    int numSocs = 4;

    /** Per-SoC scheduling policy spec (exp::PolicyRegistry). */
    std::string policy = "moca";
    /** Front-end dispatcher spec (cluster::DispatcherRegistry). */
    std::string dispatcher = "rr";
    /** Admission-control spec (serve::AdmissionRegistry). */
    std::string admission = "always";

    std::uint64_t dispatcherSeed = 1;

    /** PDES worker threads; bit-identical for every value >= 1. */
    int jobs = 1;

    /**
     * Control quantum in cycles: the fleet never advances more than
     * this far without a harvest/reaction point.  0 = unbounded
     * (advance straight to the next front-end event).  Smaller quanta
     * react faster but cost more barrier epochs.
     */
    Cycles controlQuantum = 50'000;

    ClientPoolConfig clients;
    FailureConfig failures;

    /** Wall-clock phase profiling (see ClusterResult::phases);
     *  diagnostic only, keep off for timing=0 baselines. */
    bool profile = false;

    /**
     * Telemetry capture bag (obs/capture.h): when non-null the run
     * records front-end events (admission shed/defer, SoC
     * fail/recover), PDES epoch spans, per-SoC trace events, and
     * sampled timeseries.  Observational only;
     * single-coordinator-written like ClusterConfig::capture.
     */
    obs::Capture *capture = nullptr;
};

/** Outcome of one serving run. */
struct ServeResult
{
    /**
     * Fleet-level aggregates in the shared cluster shape.  Under the
     * closed loop the client-facing fields are response-based:
     * slaRate/latency/goodput count only client-observed responses
     * (an orphan completion is wasted work); numTasks is the number
     * of admitted placements (attempts); shedRate = shed /
     * (attempts + shed), retryRate = retries / requests, timeoutRate
     * = timeouts / requests.  Per-SoC shares aggregate every
     * completion (the fleet-utilization view), summed over a slot's
     * incarnations when failures replaced its SoC.
     */
    cluster::ClusterResult cluster;

    // --- Front-end counters -------------------------------------------

    std::uint64_t requests = 0;  ///< Requests ever issued.
    std::uint64_t attempts = 0;  ///< Admitted placements (jobs).
    std::uint64_t responses = 0; ///< Client-observed successes.
    std::uint64_t giveUps = 0;   ///< Requests resolved as failures.
    std::uint64_t timeouts = 0;  ///< Per-attempt client timeouts.
    std::uint64_t retries = 0;   ///< Backoff re-issues (timeout/shed).
    std::uint64_t shed = 0;      ///< Admission rejections.
    std::uint64_t deferrals = 0; ///< Admission/capacity deferrals.
    std::uint64_t orphans = 0;   ///< Completions nobody waited for.
    std::uint64_t requeued = 0;  ///< Failure-lost attempts re-placed.
    std::uint64_t lostJobs = 0;  ///< Uncompleted jobs on failed SoCs.

    std::uint64_t failEvents = 0;
    std::uint64_t recoverEvents = 0;

    /** Client-observed latency (first issue -> completion, backoff
     *  and retries included) of successful requests, in cycles. */
    PercentileSummary clientLatency;

    /** responses / requests. */
    double successRate = 0.0;

    /** Time-averaged Up-SoC count over the serving interval. */
    double meanUpSocs = 0.0;

    /** Front-end clock when the last request resolved. */
    Cycles endCycle = 0;
};

/**
 * Run one closed-loop serving experiment.  Deterministic: a pure
 * function of `cfg`, bit-identical for every `jobs` value.  Fatal on
 * invalid configuration or when the serving clock passes
 * soc.maxCycles with requests unresolved (deadlock).
 */
ServeResult runServe(const ServeConfig &cfg);

} // namespace moca::serve

#endif // MOCA_SERVE_SERVE_H
