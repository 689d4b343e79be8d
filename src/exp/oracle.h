/**
 * @file
 * Isolated-execution oracle: the C_single reference latencies used by
 * the QoS-target computation and the STP/fairness metrics.  A model's
 * isolated latency is measured by simulating it alone on the SoC (no
 * co-runners, no queueing) on a given tile count; results are
 * memoized per (model, tiles, config) since they are deterministic.
 */

#ifndef MOCA_EXP_ORACLE_H
#define MOCA_EXP_ORACLE_H

#include "common/units.h"
#include "dnn/model_zoo.h"
#include "sim/policy.h"
#include "sim/soc.h"

namespace moca::exp {

/**
 * Trivial policy that runs each waiting job as soon as enough tiles
 * are free, FCFS, on a fixed tile count.  Used by the oracle and as
 * the no-management policy of the Fig. 1 co-location study.
 */
class SoloPolicy : public sim::Policy
{
  public:
    explicit SoloPolicy(int tiles_per_job)
        : tilesPerJob_(tiles_per_job)
    {
    }

    const char *name() const override { return "solo"; }

    void schedule(sim::Soc &soc, sim::SchedEvent event) override;

  private:
    int tilesPerJob_;
};

/**
 * Isolated latency of `model` running alone on `num_tiles` tiles
 * under `cfg`: one simulation per call (for models outside the zoo,
 * e.g. pruned or one-layer variants).
 */
Cycles isolatedLatency(const dnn::Model &model, int num_tiles,
                       const sim::SocConfig &cfg);

/** Isolated latency of zoo model `id` (memoized). */
Cycles isolatedLatency(dnn::ModelId id, int num_tiles,
                       const sim::SocConfig &cfg);

/** Clear the memoization cache (tests that vary configs). */
void clearOracleCache();

} // namespace moca::exp

#endif // MOCA_EXP_ORACLE_H
