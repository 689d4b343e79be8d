/**
 * @file
 * Scenario runner shared by the benchmark binaries and examples: it
 * builds an SoC + policy, replays a generated multi-tenant trace, and
 * computes the paper's metrics.  One `Scenario` corresponds to one
 * cell of Figures 5-8 (a workload set x QoS level x policy).
 *
 * Policies are identified by *spec strings* resolved through
 * exp::PolicyRegistry ("moca", "prema", "moca:tick=2048", ...); see
 * registry.h for the grammar.  The free functions here are the
 * single-run primitives; the sweep engine (sweep/sweep.h) runs grids
 * of them, e.g. several policies replaying one trace via
 * appendPolicyCells.
 */

#ifndef MOCA_EXP_SCENARIO_H
#define MOCA_EXP_SCENARIO_H

#include <memory>
#include <string>
#include <vector>

#include "mem/memory_model.h"
#include "metrics/metrics.h"
#include "obs/sampler.h"
#include "sim/config.h"
#include "sim/job.h"
#include "sim/policy.h"
#include "workload/workload.h"

namespace moca::exp {

/** The four built-in policy specs in the paper's presentation order
 *  ("prema", "static", "planaria", "moca"). */
const std::vector<std::string> &allPolicySpecs();

/** Instantiate a policy from a spec string via the registry; fatal
 *  (with did-you-mean) on unknown names or parameters. */
std::unique_ptr<sim::Policy> makePolicy(const std::string &spec,
                                        const sim::SocConfig &cfg);

/** Outcome of one scenario run. */
struct ScenarioResult
{
    /** The policy spec string the scenario ran under. */
    std::string policy;
    workload::TraceConfig trace;
    metrics::RunMetrics metrics;
    std::vector<sim::JobResult> jobs;
    Cycles makespan = 0;         ///< Cycle the last job finished.
    double dramBusyFraction = 0.0;
    double thrashLostBytes = 0.0; ///< DRAM bandwidth lost to thrash.
    /** Demand/arbitrate/advance rounds the kernel executed (fixed
     *  quanta or event steps; see SocStats::quanta). */
    std::uint64_t simSteps = 0;
    Cycles cyclesSimulated = 0;  ///< Simulated time of the run.
    /** The memory model's per-level traffic counters (row hits and
     *  misses, per-bank bytes, L2 bank-conflict loss); all zero
     *  under the bank-less `flat` model. */
    mem::MemTraffic memTraffic;
    int totalMigrations = 0;
    int totalPreemptions = 0;
    int totalThrottleReconfigs = 0;
    /** Sampled telemetry timeseries (obs/sampler.h); null unless the
     *  run's SocConfig::sampleEvery was nonzero.  Shared so copies of
     *  the result stay cheap in sweep pipelines. */
    std::shared_ptr<const obs::Timeseries> telemetry;
};

/**
 * Run one scenario: generate the trace for `trace`, execute it under
 * the policy named by `spec`, and compute metrics against the
 * full-SoC isolated-latency oracle.
 */
ScenarioResult runScenario(const std::string &spec,
                           const workload::TraceConfig &trace,
                           const sim::SocConfig &cfg);

/**
 * Run a pre-generated trace (used when several policies must see the
 * identical job stream).
 */
ScenarioResult runTrace(const std::string &spec,
                        const std::vector<sim::JobSpec> &specs,
                        const workload::TraceConfig &trace,
                        const sim::SocConfig &cfg);

/**
 * Run a pre-generated trace under an already-built policy (policies
 * constructed outside the registry).  `label` is recorded as the
 * result's policy string for reporting only.
 */
ScenarioResult runTrace(sim::Policy &policy, const std::string &label,
                        const std::vector<sim::JobSpec> &specs,
                        const workload::TraceConfig &trace,
                        const sim::SocConfig &cfg);

/** Generate the trace for a TraceConfig (oracle-backed QoS targets). */
std::vector<sim::JobSpec>
makeTrace(const workload::TraceConfig &trace, const sim::SocConfig &cfg);

} // namespace moca::exp

#endif // MOCA_EXP_SCENARIO_H
