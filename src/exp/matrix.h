/**
 * @file
 * The 9-scenario evaluation matrix of the paper (Sec. V): three
 * workload sets {A, B, C} x three QoS levels {L, M, H}, each run
 * under the four policies on identical traces.  paper_figs prints
 * the Fig. 5-8 tables from one run of it.
 */

#ifndef MOCA_EXP_MATRIX_H
#define MOCA_EXP_MATRIX_H

#include <string>
#include <vector>

#include "exp/sweep/sweep.h"

namespace moca::exp {

/** One (set, qos) cell with the selected policies' results. */
struct MatrixCell
{
    workload::WorkloadSet set;
    workload::QosLevel qos;
    std::vector<ScenarioResult> byPolicy; ///< MatrixConfig::policies order.

    /** Result of the given policy spec; fatal when absent. */
    const ScenarioResult &result(const std::string &spec) const;

    /** Whether this cell holds a result for the spec. */
    bool has(const std::string &spec) const;
};

/** Parameters of a matrix sweep. */
struct MatrixConfig
{
    int numTasks = 250;
    double loadFactor = 0.8;
    double qosScale = 4.0;
    std::uint64_t seed = 1;

    /** Policy specs each scenario runs under; empty selects the four
     *  built-in policies (allPolicySpecs()). */
    std::vector<std::string> policies;

    /** `policies` with the default applied. */
    const std::vector<std::string> &policyList() const;
};

/**
 * The 36 (set, qos, policy) cells of the matrix as a sweep grid,
 * policy-major within each (set, qos) scenario.  Traces are generated
 * once per scenario and replayed identically under every policy.
 */
std::vector<SweepCell> matrixGrid(const MatrixConfig &mcfg,
                                  const sim::SocConfig &cfg);

/** Pivot the results of matrixGrid(mcfg, ...), in grid order, into
 *  the 9 MatrixCells. */
std::vector<MatrixCell> pivotMatrix(const MatrixConfig &mcfg,
                                    std::vector<ScenarioResult> results);

/** Run matrixGrid on the sweep engine with `opts` (worker count,
 *  progress lines) and pivot the results. */
std::vector<MatrixCell>
runMatrix(const MatrixConfig &mcfg, const sim::SocConfig &cfg,
          const SweepOptions &opts);

/** Geomean and max of a per-scenario ratio over the matrix. */
struct Margin
{
    double geomean = 0.0;
    double max = 0.0;
};

/**
 * The margin rule every bench reports: ref / other with both sides
 * floored at `floor`, so a zero metric on either side (an SLA rate of
 * 0, say) still yields a finite, positive ratio.
 */
double marginRatio(double ref, double other, double floor);

/** The policy margins are taken over: "moca" when `policies` lists
 *  it, else the first one. */
std::string referencePolicy(const std::vector<std::string> &policies);

/**
 * How far policy `ref` leads policy `other` on `metric`: the
 * marginRatio of ref over other in every scenario.
 */
Margin marginOver(const std::vector<MatrixCell> &matrix,
                  const std::string &ref, const std::string &other,
                  double metrics::RunMetrics::*metric, double floor);

/** All (set, qos) pairs in presentation order (A/B/C x L/M/H). */
const std::vector<std::pair<workload::WorkloadSet,
                            workload::QosLevel>> &matrixCells();

} // namespace moca::exp

#endif // MOCA_EXP_MATRIX_H
