/**
 * @file
 * Timing wrappers around the simulator's pluggable layers, used by the
 * benchmark's traced runs.  Each wrapper is registered from the
 * benchmark's own sources through the layer's public registrar under
 * the name "timed-<inner>", forwards every call to the inner layer
 * instance built from the same registry, and counts calls and the
 * wall time spent inside them:
 *
 *   - memory model  (mem::MemoryModelRegistrar)   "timed-flat"
 *   - policy        (exp::PolicyRegistrar)        "timed-moca"
 *   - dispatcher    (cluster::DispatcherRegistrar) "timed-rr", "timed-p2c"
 *   - admission     (serve::AdmissionRegistrar)   "timed-queue-cap"
 *
 * Wrappers keep per-instance counters (one SoC's memory model and
 * policy run on one PDES worker at a time) and fold them into the
 * process-wide totals under a mutex when the instance is destroyed,
 * i.e. when the run that built it ends.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <string>

namespace perfbench {

/** Counters of every wrapped layer, summed over finished instances. */
struct LayerTotals
{
    std::uint64_t memCalls = 0;
    double memSec = 0.0;

    std::uint64_t policyCalls = 0;
    double policySec = 0.0;
    /** Per-job counters read at each job's completion. */
    std::uint64_t throttleReconfigs = 0;
    std::uint64_t migrations = 0;
    std::uint64_t preemptions = 0;

    std::uint64_t dispatchCalls = 0;
    double dispatchSec = 0.0;

    std::uint64_t admissionCalls = 0;
    double admissionSec = 0.0;

    LayerTotals &operator+=(const LayerTotals &o);
};

/** Return the totals accumulated so far and reset them to zero. */
LayerTotals takeLayerTotals();

/** Registry spec of the timing wrapper around `inner`. */
inline std::string
timed(const std::string &inner)
{
    return "timed-" + inner;
}

/** Inner spec the "timed-queue-cap" admission wrapper forwards to. */
extern const char *const kAdmissionSpec;

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
