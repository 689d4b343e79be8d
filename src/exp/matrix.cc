#include "exp/matrix.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "common/stats.h"

namespace moca::exp {

const ScenarioResult &
MatrixCell::result(const std::string &spec) const
{
    for (const auto &r : byPolicy)
        if (r.policy == spec)
            return r;
    fatal("matrix cell has no result for policy '%s'", spec.c_str());
}

bool
MatrixCell::has(const std::string &spec) const
{
    for (const auto &r : byPolicy)
        if (r.policy == spec)
            return true;
    return false;
}

const std::vector<std::string> &
MatrixConfig::policyList() const
{
    return policies.empty() ? allPolicySpecs() : policies;
}

const std::vector<std::pair<workload::WorkloadSet,
                            workload::QosLevel>> &
matrixCells()
{
    using workload::QosLevel;
    using workload::WorkloadSet;
    static const std::vector<std::pair<WorkloadSet, QosLevel>> cells = {
        {WorkloadSet::A, QosLevel::Light},
        {WorkloadSet::A, QosLevel::Medium},
        {WorkloadSet::A, QosLevel::Hard},
        {WorkloadSet::B, QosLevel::Light},
        {WorkloadSet::B, QosLevel::Medium},
        {WorkloadSet::B, QosLevel::Hard},
        {WorkloadSet::C, QosLevel::Light},
        {WorkloadSet::C, QosLevel::Medium},
        {WorkloadSet::C, QosLevel::Hard},
    };
    return cells;
}

std::vector<SweepCell>
matrixGrid(const MatrixConfig &mcfg, const sim::SocConfig &cfg)
{
    std::vector<SweepCell> grid;
    grid.reserve(matrixCells().size() * mcfg.policyList().size());
    for (const auto &[set, qos] : matrixCells()) {
        workload::TraceConfig trace;
        trace.set = set;
        trace.qos = qos;
        trace.numTasks = mcfg.numTasks;
        trace.loadFactor = mcfg.loadFactor;
        trace.qosScale = mcfg.qosScale;
        trace.seed = mcfg.seed;
        appendPolicyCells(
            grid,
            std::string(workload::workloadSetName(set)) + " " +
                workload::qosLevelName(qos),
            mcfg.policyList(), trace, cfg);
    }
    return grid;
}

std::vector<MatrixCell>
pivotMatrix(const MatrixConfig &mcfg, std::vector<ScenarioResult> results)
{
    std::vector<MatrixCell> out;
    const std::size_t per_cell = mcfg.policyList().size();
    if (results.size() != matrixCells().size() * per_cell)
        panic("pivotMatrix: %zu results for a %zu-cell grid",
              results.size(), matrixCells().size() * per_cell);
    for (std::size_t c = 0; c < matrixCells().size(); ++c) {
        MatrixCell cell;
        cell.set = matrixCells()[c].first;
        cell.qos = matrixCells()[c].second;
        for (std::size_t p = 0; p < per_cell; ++p)
            cell.byPolicy.push_back(
                std::move(results[c * per_cell + p]));
        out.push_back(std::move(cell));
    }
    return out;
}

std::vector<MatrixCell>
runMatrix(const MatrixConfig &mcfg, const sim::SocConfig &cfg,
          const SweepOptions &opts)
{
    return pivotMatrix(mcfg,
                       SweepRunner(opts).run(matrixGrid(mcfg, cfg)));
}

double
marginRatio(double ref, double other, double floor)
{
    return std::max(ref, floor) / std::max(other, floor);
}

std::string
referencePolicy(const std::vector<std::string> &policies)
{
    return std::find(policies.begin(), policies.end(), "moca") !=
            policies.end()
        ? "moca"
        : policies.front();
}

Margin
marginOver(const std::vector<MatrixCell> &matrix, const std::string &ref,
           const std::string &other, double metrics::RunMetrics::*metric,
           double floor)
{
    std::vector<double> ratios;
    for (const auto &cell : matrix)
        ratios.push_back(marginRatio(cell.result(ref).metrics.*metric,
                                     cell.result(other).metrics.*metric,
                                     floor));
    Margin m;
    m.geomean = geomean(ratios);
    m.max = ratios.empty()
        ? 0.0
        : *std::max_element(ratios.begin(), ratios.end());
    return m;
}

} // namespace moca::exp
