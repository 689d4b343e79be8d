/**
 * @file
 * The per-cell result record of a sweep — the scenario identity
 * (label, policy, trace parameters) plus the paper's metrics — and
 * its CSV and JSON renderings, built from a finished sweep's cells
 * and results.
 */

#ifndef MOCA_EXP_SWEEP_RECORDS_H
#define MOCA_EXP_SWEEP_RECORDS_H

#include <string>
#include <vector>

#include "exp/sweep/sweep.h"

namespace moca::exp {

/** Column names of the per-cell record (CSV header / JSON keys). */
const std::vector<std::string> &sweepRecordFields();

/** One cell's record as strings, aligned with sweepRecordFields(). */
std::vector<std::string> sweepRecordValues(std::size_t index,
                                           const SweepCell &cell,
                                           const ScenarioResult &r);

/** CSV text of the sweep: a header row, then one record per cell.
 *  `results[i]` belongs to `cells[i]`. */
std::string sweepCsv(const std::vector<SweepCell> &cells,
                     const std::vector<ScenarioResult> &results);

/** JSON text of the sweep: an array of one object per cell. */
std::string sweepJson(const std::vector<SweepCell> &cells,
                      const std::vector<ScenarioResult> &results);

} // namespace moca::exp

#endif // MOCA_EXP_SWEEP_RECORDS_H
