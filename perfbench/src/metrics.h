/**
 * @file
 * The benchmark's metric catalogue and its result line.  Every metric
 * a run prints is declared here with its unit; BENCHMARK.json lists
 * the same names and units.
 */

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** One declared metric. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed by --trace 0 runs, on every workload. */
const std::vector<MetricDef> &endToEndMetrics();

/** Printed by --trace 1 runs, on every workload. */
const std::vector<MetricDef> &perLayerMetrics();

/** The values of one run, keyed by declared metric name. */
class MetricSet
{
  public:
    /** Record `value`; fatal when `name` is undeclared. */
    void set(const std::string &name, double value);

    const std::vector<std::pair<std::string, double>> &values() const
    {
        return values_;
    }

  private:
    std::vector<std::pair<std::string, double>> values_;
};

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(bool correct, long attempted, long failed,
                       const MetricSet &m);

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
