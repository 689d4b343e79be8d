/**
 * @file
 * Command-line plumbing shared by every bench and example binary:
 * SoC-configuration overrides, the Table II banner, sweep-engine
 * options (`--jobs N`), and the per-cell result files (`--csv PATH`,
 * `--json PATH`).  This replaces the per-binary boilerplate that used
 * to live in bench/bench_common.h.
 */

#ifndef MOCA_EXP_SWEEP_OPTIONS_H
#define MOCA_EXP_SWEEP_OPTIONS_H

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/argparse.h"
#include "common/spec.h"
#include "exp/sweep/sweep.h"

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

/**
 * Write a finished sweep's per-cell records to the `--csv PATH` and
 * `--json PATH` files (sweepCsv / sweepJson); fatal when a file
 * cannot be written.  Does nothing for a flag that is not given.
 */
void writeSweepFiles(const ArgMap &args,
                     const std::vector<SweepCell> &cells,
                     const std::vector<ScenarioResult> &results);

} // namespace moca::exp

#endif // MOCA_EXP_SWEEP_OPTIONS_H
