/**
 * @file
 * The one results-file format and its writer, shared by every bench's
 * `--json PATH`: JSON Lines, a `meta` record first (the bench, its run
 * parameters, the worker counts and the host it ran on), then one flat
 * record per line.  A record holds only scalars (parameters, counters
 * and metrics); a file holding more than cells tags each record with a
 * `kind`, and every host-timed value sits in a field whose name
 * contains `wall`, so tools/bench_compare.py can compare two files
 * record by record and mask the walls on request.
 *
 * Also the sweep's per-cell record — the scenario identity (label,
 * policy, trace parameters) plus the paper's metrics — and its CSV
 * rendering.
 */

#ifndef MOCA_EXP_SWEEP_RECORDS_H
#define MOCA_EXP_SWEEP_RECORDS_H

#include <string>
#include <vector>

#include "common/json.h"
#include "exp/sweep/sweep.h"

namespace moca::exp {

/** One flat record: scalar fields (strings, integers, bools,
 *  jsonFixed numbers) in output order. */
using Record = JsonLine;

/**
 * The meta record that opens a results file: `"kind": "meta"`, the
 * bench, its run parameters `params`, then the host fields a
 * comparison ignores: the sweep worker count `jobs` (resolved), the
 * hardware threads `nproc`, and the compiler, build type, flags and
 * commit (`git describe --always --dirty` when the build was
 * configured) the binary was built with.
 */
Record runMeta(const char *bench, int jobs, const Record &params = {});

/** JSON Lines text: `meta`, then one line per record, each a
 *  one-line object with its fields in order.  Panics on a nested
 *  (object or array) value. */
std::string recordsText(const Record &meta,
                        const std::vector<Record> &records);

/** Unless `path` is empty, write recordsText() there; fatal when the
 *  file cannot be written. */
void writeRecords(const std::string &path, const Record &meta,
                  const std::vector<Record> &records);

/** Column names of the per-cell sweep record (CSV header / keys). */
const std::vector<std::string> &sweepRecordFields();

/** One cell's record as strings, aligned with sweepRecordFields(). */
std::vector<std::string> sweepRecordValues(std::size_t index,
                                           const SweepCell &cell,
                                           const ScenarioResult &r);

/** CSV text of the sweep: a header row, then one record per cell.
 *  `results[i]` belongs to `cells[i]`. */
std::string sweepCsv(const std::vector<SweepCell> &cells,
                     const std::vector<ScenarioResult> &results);

/** The sweep's per-cell records, numbers unquoted. */
std::vector<Record> sweepRecords(const std::vector<SweepCell> &cells,
                                 const std::vector<ScenarioResult> &results);

} // namespace moca::exp

#endif // MOCA_EXP_SWEEP_RECORDS_H
