/**
 * @file
 * Pluggable shared-memory-hierarchy models.
 *
 * The paper's thesis is memory-centric — "execution latency is highly
 * correlated with the number of in-flight memory requests" — so the
 * fidelity of the shared DRAM/L2 model matters.  A `MemoryModel` is
 * the seam: each simulation step the SoC presents every running job's
 * byte demand over the step horizon, and the model returns the bytes
 * each requester is actually served (plus per-step accounting).
 * Because grants are a pure function of (demands, horizon, internal
 * model state), both time-advance kernels can drive the same model:
 * the quantum kernel calls it once per fixed quantum, the event kernel
 * once per variable-length step, and `cyclesUntilNextChange()` lets a
 * stateful model bound the event kernel's step so its internal state
 * (e.g. row-buffer locality) is sampled often enough.
 *
 * Models are string-keyed self-registering factories behind
 * `MemoryModelRegistry` — moca::SpecRegistry over MemoryModel, built
 * against the SoC configuration — with the shared spec grammar
 *
 *     name[:key=value[,key=value...]]
 *
 * e.g. `flat`, `banked:banks=16,remap=mod`.  Built-ins:
 *
 *  - `flat`   one DRAM bandwidth number + the oversubscription-thrash
 *             derate and aggregate L2 bandwidth (the original
 *             arbitration path, extracted verbatim: metric-identical
 *             to the pre-mem-subsystem simulator).
 *  - `banked` bank-aware DRAM + L2: per-bank demand mapping with
 *             address-interleave hashing, row-hit vs row-miss service
 *             rates, a per-requester streaming-locality state that
 *             degrades as co-runners interleave on the same banks
 *             (the thrash pathology, emergent instead of heuristic),
 *             and L2 bank-port contention.
 *
 * Registration is open via `MemoryModelRegistrar`, so experiments can
 * plug in custom hierarchies without touching this file.
 */

#ifndef MOCA_MEM_MEMORY_MODEL_H
#define MOCA_MEM_MEMORY_MODEL_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/spec.h"
#include "common/spec_registry.h"
#include "common/units.h"
#include "sim/config.h"

namespace moca::mem {

/** Memory-model specs use the shared registry grammar. */
using MemSpec = moca::Spec;

/** One requester's byte demand for a step. */
struct MemRequest
{
    /** Requester (job) id — stable across steps, so stateful models
     *  can track per-requester state such as streaming locality. */
    int id = -1;
    double dramBytes = 0.0; ///< DRAM demand over the horizon.
    double l2Bytes = 0.0;   ///< L2 demand over the horizon.
    double weight = 1.0;    ///< DMA engine count (tiles).
};

/** Bytes granted to one requester for a step. */
struct MemGrant
{
    double dramBytes = 0.0;
    double l2Bytes = 0.0;
};

/** Per-step accounting the SoC folds into its SocStats. */
struct MemStepStats
{
    /** The flat model's oversubscription derate fired this step. */
    bool thrashed = false;
    /** DRAM bytes lost to the derate this step. */
    double thrashLostBytes = 0.0;
};

/**
 * Cumulative per-level traffic counters a model maintains across a
 * run, surfaced through ScenarioResult and the CSV/JSON sinks so
 * sweeps can plot memory behavior, not just end metrics.  The flat
 * model has no bank state and leaves everything zero.
 */
struct MemTraffic
{
    std::uint64_t dramRowHits = 0;   ///< Row-buffer-hit activations.
    std::uint64_t dramRowMisses = 0; ///< Row-buffer-miss activations.
    /** Granted DRAM bytes per bank (empty for bank-less models). */
    std::vector<double> bankBytes;
    /** L2 bytes denied by bank-port conflicts that the aggregate
     *  (flat) L2 bandwidth would have served. */
    double l2ConflictLostBytes = 0.0;

    /** Coefficient of variation of bankBytes (0 = perfectly balanced
     *  or bank-less). */
    double bankBytesCv() const;
    /** Row-hit fraction of all activations (0 when none counted). */
    double rowHitRate() const;
};

/**
 * A shared-memory-hierarchy model.  One instance per Soc per run;
 * implementations may keep per-requester state and are only ever
 * called from that Soc's (single) simulation thread.
 */
class MemoryModel
{
  public:
    virtual ~MemoryModel() = default;

    virtual const char *name() const = 0;

    /**
     * Arbitrate one step: grant each requester a share of the shared
     * DRAM channel and L2 bandwidth over `horizon` cycles.  Grants
     * must satisfy 0 <= grant <= demand per requester and respect the
     * model's aggregate capacities.  Requesters with zero demand
     * (e.g. stalled jobs) are present and must receive zero grants.
     *
     * Returns a reference to a model-owned buffer, valid until the
     * next arbitrate() call on the same model: arbitration runs once
     * per simulation step, so returning a fresh vector would put an
     * allocation on the hottest path of long-horizon runs.
     */
    virtual const std::vector<MemGrant> &
    arbitrate(const std::vector<MemRequest> &requests, Cycles horizon,
              MemStepStats &stats) = 0;

    /**
     * Upper bound on how long the grants just computed stay a good
     * approximation: the event kernel caps its step at now + this so
     * the model's internal state (e.g. locality decay) is re-sampled
     * often enough.  0 means "stateless — no bound needed" (the flat
     * model), which keeps the event stream, and therefore the
     * simulation, bit-identical to the pre-mem-subsystem kernel.
     */
    virtual Cycles cyclesUntilNextChange() const { return 0; }

    /** Cumulative traffic counters (valid any time). */
    const MemTraffic &traffic() const { return traffic_; }

  protected:
    MemTraffic traffic_;
};

/**
 * The process-wide memory-model registry (`--list-mem-models`,
 * `--mem`; iteration order is registration order, built-ins first).
 * validate() is structural: a model's parameter ranges are checked
 * against the SoC configuration it runs on, so callers trial-build
 * with make(spec, cfg) once that configuration is known.
 */
using MemoryModelRegistry =
    moca::SpecRegistry<MemoryModel, const sim::SocConfig &>;

/** Link-time self-registration hook:
 *
 *     static mem::MemoryModelRegistrar reg({"mine", "...", {...},
 *                                           factory});
 */
using MemoryModelRegistrar = moca::Registrar<MemoryModelRegistry>;

} // namespace moca::mem

namespace moca {
template <>
mem::MemoryModelRegistry &mem::MemoryModelRegistry::instance();
} // namespace moca

#endif // MOCA_MEM_MEMORY_MODEL_H
