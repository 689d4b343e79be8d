/**
 * @file
 * Parallel experiment engine: a declarative grid of scenario cells
 * (policy x TraceConfig x SocConfig) executed on a fixed-size worker
 * pool.  Every figure in the paper is a grid of independent,
 * deterministic `Scenario` runs; `SweepRunner` hoists the sweep loop
 * that the bench binaries used to copy-paste into one shared engine.
 *
 * Determinism contract: a cell's result depends only on the cell
 * itself (its trace seed, policy, and SoC configuration), never on
 * which worker ran it or in what order.  Parallel (`jobs > 1`) and
 * serial (`jobs == 1`) sweeps therefore produce bit-identical
 * `ScenarioResult`s.
 */

#ifndef MOCA_EXP_SWEEP_SWEEP_H
#define MOCA_EXP_SWEEP_SWEEP_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/scenario.h"

namespace moca::exp {

/** One cell of a sweep grid: everything needed to run one scenario. */
struct SweepCell
{
    /** Row label for tables and result files, e.g. "Workload-A QoS-L". */
    std::string label;

    /** Policy spec string resolved through exp::PolicyRegistry,
     *  e.g. "moca" or "moca:tick=2048,threshold=fixed". */
    std::string policy = "moca";

    workload::TraceConfig trace;
    sim::SocConfig soc;

    /**
     * Optional pre-generated job stream shared read-only between
     * cells (e.g. several policies replaying the identical trace).
     * When null the cell generates its own trace from `trace`, which
     * is deterministic given `trace.seed`.
     */
    std::shared_ptr<const std::vector<sim::JobSpec>> specs;
};

/**
 * Deterministic per-cell seed: splitmix64 of (base, index).  Grid
 * builders use this so every cell owns an independent RNG stream that
 * depends only on the cell's index, never on execution order.
 */
std::uint64_t deriveCellSeed(std::uint64_t base, std::size_t index);

/** Run one cell (generate or replay its trace, execute, compute
 *  metrics).  This is the unit of work the pool executes. */
ScenarioResult runCell(const SweepCell &cell);

/**
 * Append one cell per policy spec in `specs`, all replaying the
 * identical trace (generated once from `trace` + `soc` and shared
 * read-only).  The standard way grids compare policies on the same
 * job stream.
 */
void appendPolicyCells(std::vector<SweepCell> &grid,
                       const std::string &label,
                       const std::vector<std::string> &specs,
                       const workload::TraceConfig &trace,
                       const sim::SocConfig &soc);

/** Execution options of a sweep. */
struct SweepOptions
{
    /** Worker count; 0 means hardware concurrency. */
    int jobs = 1;

    /** Print a progress line as each cell completes. */
    bool verbose = false;
};

/** Resolve `jobs` (0 -> hardware concurrency, floor 1). */
int resolveJobs(int jobs);

/**
 * The parallel sweep engine.  Cells are share-nothing (each owns its
 * Soc, Policy, and RNG), so the pool simply pulls cell indices from a
 * work queue.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {}) : opts_(opts) {}

    /** Run all cells and return their results in cell order. */
    std::vector<ScenarioResult>
    run(const std::vector<SweepCell> &cells) const;

    /**
     * Low-level engine used by non-scenario grids (co-location
     * repetitions, per-model validation points): execute task(i) for
     * i in [0, n) on a pool of `jobs` workers.  task(i) must depend
     * only on i.
     */
    static void runIndexed(std::size_t n, int jobs,
                           const std::function<void(std::size_t)> &task);

    const SweepOptions &options() const { return opts_; }

  private:
    SweepOptions opts_;
};

} // namespace moca::exp

#endif // MOCA_EXP_SWEEP_SWEEP_H
