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

#include <string>
#include <vector>

#include "common/argparse.h"
#include "exp/sweep/sweep.h"

namespace moca::exp {

/** Apply common key=value overrides (tiles, dram_bw, l2_kib,
 *  overlap_f, quantum, kernel=quantum|event, max-cycles, mem=SPEC)
 *  to the SoC configuration.  `--mem SPEC` selects (and
 *  trial-validates) the memory-hierarchy model;
 *  `--list-mem-models` prints the mem::MemoryModelRegistry
 *  catalogue and exits. */
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
 * Shared `--policy <spec>[,<spec>...]` / `--list-policies` handling
 * for every bench binary.  `--list-policies` prints the registry
 * catalogue and exits; `--policy` selects (and validates) the policy
 * specs to run, defaulting to `def` (or the four built-in policies
 * when `def` is empty).  Unknown specs are fatal with a did-you-mean
 * suggestion.
 */
std::vector<std::string>
policiesFromArgs(const ArgMap &args,
                 const std::vector<std::string> &def = {});

/**
 * Shared `--dispatcher <spec>[,<spec>...]` / `--list-dispatchers`
 * handling for cluster-aware binaries, mirroring policiesFromArgs:
 * `--list-dispatchers` prints the cluster::DispatcherRegistry
 * catalogue and exits; `--dispatcher` selects (and validates) the
 * dispatcher specs, defaulting to `def` (or plain "rr" when `def` is
 * empty).  Unknown specs are fatal with a did-you-mean suggestion.
 */
std::vector<std::string>
dispatchersFromArgs(const ArgMap &args,
                    const std::vector<std::string> &def = {});

/**
 * Shared `--admission <spec>[,<spec>...]` / `--list-admission`
 * handling for serving-aware binaries, mirroring dispatchersFromArgs
 * over the serve::AdmissionRegistry; defaults to `def` (or plain
 * "always" when `def` is empty).
 */
std::vector<std::string>
admissionFromArgs(const ArgMap &args,
                  const std::vector<std::string> &def = {});

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
