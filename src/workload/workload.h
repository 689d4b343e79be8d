/**
 * @file
 * Multi-tenant workload generation (paper Sec. IV-B): N inference
 * tasks drawn from a workload set (A: light, B: heavy, C: mixed) are
 * dispatched at random times with user-defined static priorities in
 * 0..11 following the Google-trace-derived distribution of [11], [37],
 * and per-task QoS (SLA) targets at three levels:
 * QoS-L = 1.2x, QoS-M = 1.0x, QoS-H = 0.8x the baseline target.
 *
 * The baseline QoS target of a model is a multiple of its isolated
 * single-tile latency ("each of our accelerator tiles is close to an
 * edge device", Sec. IV-B), exposed as `qosScale`.
 */

#ifndef MOCA_WORKLOAD_WORKLOAD_H
#define MOCA_WORKLOAD_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dnn/model_zoo.h"
#include "sim/job.h"

namespace moca::workload {

/** The paper's three QoS levels. */
enum class QosLevel
{
    Light,  ///< QoS-L: 1.2x baseline target.
    Medium, ///< QoS-M: baseline target.
    Hard,   ///< QoS-H: 0.8x baseline target.
};

/** Latency-target multiplier for a QoS level. */
double qosMultiplier(QosLevel level);

/** Printable name ("QoS-L", ...). */
const char *qosLevelName(QosLevel level);

/** Parse a QoS level from its letter ("l", "m" or "h"); fatal on
 *  anything else. */
QosLevel qosLevelFromName(const std::string &name);

/** The paper's three workload sets (Table III). */
enum class WorkloadSet { A, B, C };

/** Models in the given set. */
const std::vector<dnn::ModelId> &workloadSetModels(WorkloadSet set);

/** Printable name ("Workload-A", ...). */
const char *workloadSetName(WorkloadSet set);

/** Parse a workload set from its letter ("a", "b" or "c"); fatal on
 *  anything else. */
WorkloadSet workloadSetFromName(const std::string &name);

/**
 * Static priority distribution over levels 0..11, shaped after the
 * published Google-trace analyses used by the paper (most tasks at
 * low priority, a thin high-priority tail).
 */
const std::vector<double> &priorityWeights();

/** Group a 0..11 priority into the paper's p-Low/p-Mid/p-High bins. */
enum class PriorityGroup { Low, Mid, High };
PriorityGroup priorityGroup(int priority);

/** Inter-arrival process of the dispatched requests. */
enum class ArrivalPattern
{
    Poisson, ///< Exponential inter-arrivals (default).
    Uniform, ///< Uniform jitter around the mean inter-arrival.
    Bursty,  ///< Geometric bursts arriving back-to-back.
};

/** Printable pattern name. */
const char *arrivalPatternName(ArrivalPattern pattern);

/** Parameters of one generated multi-tenant trace. */
struct TraceConfig
{
    WorkloadSet set = WorkloadSet::C;
    QosLevel qos = QosLevel::Medium;
    int numTasks = 250;

    ArrivalPattern arrivals = ArrivalPattern::Poisson;

    /** Mean burst size for ArrivalPattern::Bursty (>= 1). */
    double burstMean = 4.0;

    /**
     * Offered load as a fraction of aggregate SoC tile-capacity:
     * arrival rate = loadFactor * numTiles / mean isolated single-tile
     * latency of the set's models.  0.8 stresses the tile array,
     * which is the contention-heavy regime the paper evaluates.
     */
    double loadFactor = 0.8;

    /** QoS-M target = qosScale x isolated single-tile latency
     *  (edge-device-grade budgets per [4]). */
    double qosScale = 4.0;

    std::uint64_t seed = 1;

    int numTiles = 8; ///< For the arrival-rate computation.
};

/**
 * Generate a multi-tenant trace.
 *
 * @param cfg trace parameters.
 * @param isolated_latency oracle returning each model's isolated
 *        single-tile latency in cycles (used for the QoS target and
 *        the arrival-rate calibration).
 */
std::vector<sim::JobSpec>
generateTrace(const TraceConfig &cfg,
              const std::function<Cycles(dnn::ModelId)> &isolated_latency);

} // namespace moca::workload

#endif // MOCA_WORKLOAD_WORKLOAD_H
