/**
 * @file
 * The bench harness, shared by every bench and example binary:
 * SoC-configuration overrides, the Table II banner, sweep-engine
 * options (`--jobs N`), result files (`--csv PATH`, `--json PATH`,
 * written through exp/sweep/records.h),
 * and for the fleet benches their flags, timed cell loop, telemetry
 * export and phase report.
 */

#ifndef MOCA_EXP_SWEEP_OPTIONS_H
#define MOCA_EXP_SWEEP_OPTIONS_H

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/argparse.h"
#include "common/spec.h"
#include "common/walltime.h"
#include "exp/sweep/records.h"
#include "exp/sweep/sweep.h"

namespace moca::cluster {
struct PhaseBreakdown;
}

namespace moca::obs {
struct Capture;
}

namespace moca::exp {

/** Apply common key=value overrides (tiles, dram_bw, l2_kib,
 *  overlap_f, quantum, kernel=quantum|event, max-cycles, mem=SPEC)
 *  to the SoC configuration.  `--mem SPEC` selects the
 *  memory-hierarchy model (trial-built against the resulting
 *  configuration); `--list-mem-models` prints the
 *  mem::MemoryModelRegistry catalogue and exits (specsFromArgs). */
sim::SocConfig socConfigFromArgs(const ArgMap &args);

/** Parse a simulation-kernel name ("quantum" / "event"); fatal on
 *  anything else. */
sim::SimKernel parseSimKernel(const std::string &name);

/** Print the Table II SoC configuration banner. */
void printSocBanner(const sim::SocConfig &cfg);

/** Sweep-engine options from `--jobs N` (0 = hardware concurrency;
 *  negative is fatal) and `verbose=0/1`. */
SweepOptions sweepOptionsFromArgs(const ArgMap &args);

/**
 * Shared spec-list handling for one moca::SpecRegistry (policies,
 * dispatchers, admission, memory models), with the flags the registry
 * names: its list flag (`--list-policies`) prints the catalogue and
 * exits; its selection flag (`--policy SPEC[,SPEC...]`, split by
 * splitSpecList) picks the specs, defaulting to `def`.  Every spec is
 * validated to the registry's depth; unknown names are fatal with a
 * did-you-mean suggestion.
 */
template <typename Registry>
std::vector<std::string>
specsFromArgs(const ArgMap &args, std::vector<std::string> def)
{
    const Registry &reg = Registry::instance();
    if (args.has(reg.listFlag())) {
        std::fputs(reg.listText().c_str(), stdout);
        std::exit(0);
    }
    const std::string flag = reg.selectFlag();
    if (args.has(flag))
        def = splitSpecList(args.getString(flag, ""),
                            ("--" + flag).c_str());
    for (const auto &spec : def)
        reg.validate(spec);
    return def;
}

/** The `--csv PATH` and `--json PATH` output files ("" when not
 *  given), read up front so ArgMap::requireAllRead() sees them. */
struct OutputFiles
{
    std::string csv;
    std::string json;
};

OutputFiles outputFilesFromArgs(const ArgMap &args);

/**
 * Write a finished sweep's per-cell records to the csv file
 * (sweepCsv) and, after `meta`, to the json file (sweepRecords,
 * writeRecords); fatal when a file cannot be written.  Does nothing
 * for a file that is not given.
 */
void writeSweepFiles(const OutputFiles &out, const Record &meta,
                     const std::vector<SweepCell> &cells,
                     const std::vector<ScenarioResult> &results);

/** `--sample-out FILE` ("" if absent).  Without `--sample-every` it
 *  turns sampling on in `cfg` at every 100,000 cycles. */
std::string sampleOutFromArgs(const ArgMap &args, sim::SocConfig &cfg);

/** The flags cluster_scale and serve_loop share. */
struct FleetOptions
{
    sim::SocConfig soc; ///< Event kernel unless `kernel=` is given.
    SweepOptions sweep;
    int clusterJobs = 1; ///< `--cluster-jobs N` PDES workers (>= 1).
    /** `timing=0` zeroes every wall-clock field, so runs that must be
     *  value-identical (`--cluster-jobs` 1 vs 4) emit identical JSON. */
    bool timing = true;
    /** Per-cell walls and phases mean something only when timing is
     *  on and cells run one at a time. */
    bool recordWall = false;
    std::string traceOut; ///< `--trace-out FILE`.
};

/** Parse FleetOptions; fatal on `--cluster-jobs` < 1. */
FleetOptions fleetOptionsFromArgs(const ArgMap &args);

/**
 * Run every cell on the sweep engine: `run(cell, i)` simulates cell
 * i, and its wall seconds land in `cell.wall` (0 unless recordWall).
 * `verbose=1` prints "  [i/n] <label(cell)> done (x s)".  Returns the
 * wall seconds of the whole loop.
 */
template <typename Cell, typename Run, typename Label>
double
runTimedCells(const FleetOptions &fleet, std::vector<Cell> &cells,
              const Run &run, const Label &label)
{
    const WallTimer total;
    SweepRunner::runIndexed(
        cells.size(), fleet.sweep.jobs, [&](std::size_t i) {
            const WallTimer timer;
            run(cells[i], i);
            const double wall = timer.seconds();
            cells[i].wall = fleet.recordWall ? wall : 0.0;
            if (fleet.sweep.verbose)
                std::printf("  [%zu/%zu] %s done (%.1f s)\n", i + 1,
                            cells.size(), label(cells[i]).c_str(), wall);
        });
    return total.seconds();
}

/** Write `capture`'s Chrome trace to `trace_out` and its first
 *  sampled SoC series to `sample_out` (warning if none); an empty
 *  path writes nothing. */
void writeFleetTelemetry(const std::string &trace_out,
                         const std::string &sample_out,
                         const obs::Capture &capture);

/** The phase report: `title`, then each phase's seconds and share
 *  (`dispatch_label` names the coordinator's phase), then the worker
 *  releases. */
std::string phaseReport(const std::string &title,
                        const cluster::PhaseBreakdown &phases,
                        const char *dispatch_label);

} // namespace moca::exp

#endif // MOCA_EXP_SWEEP_OPTIONS_H
