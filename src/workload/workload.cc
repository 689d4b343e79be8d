#include "workload/workload.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace moca::workload {

double
qosMultiplier(QosLevel level)
{
    switch (level) {
      case QosLevel::Light: return 1.2;
      case QosLevel::Medium: return 1.0;
      case QosLevel::Hard: return 0.8;
    }
    panic("bad QoS level");
}

const char *
qosLevelName(QosLevel level)
{
    switch (level) {
      case QosLevel::Light: return "QoS-L";
      case QosLevel::Medium: return "QoS-M";
      case QosLevel::Hard: return "QoS-H";
    }
    return "?";
}

QosLevel
qosLevelFromName(const std::string &name)
{
    if (name == "l")
        return QosLevel::Light;
    if (name == "m")
        return QosLevel::Medium;
    if (name == "h")
        return QosLevel::Hard;
    fatal("unknown QoS level '%s'; expected l, m, or h", name.c_str());
}

const std::vector<dnn::ModelId> &
workloadSetModels(WorkloadSet set)
{
    switch (set) {
      case WorkloadSet::A: return dnn::workloadSetA();
      case WorkloadSet::B: return dnn::workloadSetB();
      case WorkloadSet::C: return dnn::workloadSetC();
    }
    panic("bad workload set");
}

const char *
workloadSetName(WorkloadSet set)
{
    switch (set) {
      case WorkloadSet::A: return "Workload-A";
      case WorkloadSet::B: return "Workload-B";
      case WorkloadSet::C: return "Workload-C";
    }
    return "?";
}

WorkloadSet
workloadSetFromName(const std::string &name)
{
    if (name == "a")
        return WorkloadSet::A;
    if (name == "b")
        return WorkloadSet::B;
    if (name == "c")
        return WorkloadSet::C;
    fatal("unknown workload set '%s'; expected a, b, or c",
          name.c_str());
}

const std::vector<double> &
priorityWeights()
{
    // Priorities 0..11; mass concentrated at the low end with a thin
    // high-priority tail, after the Google-trace analyses [11], [37].
    static const std::vector<double> weights = {
        0.30, 0.12, 0.10,       // p-Low  (0-2)
        0.08, 0.07, 0.06, 0.06, // p-Mid  (3-8)
        0.05, 0.05,
        0.045, 0.035, 0.02,     // p-High (9-11)
    };
    return weights;
}

PriorityGroup
priorityGroup(int priority)
{
    if (priority <= 2)
        return PriorityGroup::Low;
    if (priority <= 8)
        return PriorityGroup::Mid;
    return PriorityGroup::High;
}

const char *
arrivalPatternName(ArrivalPattern pattern)
{
    switch (pattern) {
      case ArrivalPattern::Poisson: return "poisson";
      case ArrivalPattern::Uniform: return "uniform";
      case ArrivalPattern::Bursty: return "bursty";
    }
    return "?";
}

std::vector<sim::JobSpec>
generateTrace(const TraceConfig &cfg,
              const std::function<Cycles(dnn::ModelId)> &isolated_latency)
{
    if (cfg.numTasks < 1)
        fatal("trace needs at least one task");
    if (cfg.loadFactor <= 0.0)
        fatal("loadFactor must be positive");

    const auto &models = workloadSetModels(cfg.set);
    Rng rng(cfg.seed);

    // Mean isolated single-tile latency over the set's models, for
    // the arrival-rate calibration.  Each model asks the oracle once;
    // the tasks below read this memo.
    std::vector<Cycles> iso(models.size());
    double mean_iso = 0.0;
    for (std::size_t m = 0; m < models.size(); ++m) {
        iso[m] = isolated_latency(models[m]);
        mean_iso += static_cast<double>(iso[m]);
    }
    mean_iso /= static_cast<double>(models.size());
    const std::vector<double> uniform_pick(models.size(), 1.0);

    const double mean_interarrival =
        mean_iso / (cfg.loadFactor * cfg.numTiles);

    const double qos_mult = qosMultiplier(cfg.qos) * cfg.qosScale;

    std::vector<sim::JobSpec> specs;
    specs.reserve(static_cast<std::size_t>(cfg.numTasks));
    double t = 0.0;
    int burst_left = 0;
    for (int i = 0; i < cfg.numTasks; ++i) {
        switch (cfg.arrivals) {
          case ArrivalPattern::Poisson:
            t += rng.exponential(mean_interarrival);
            break;
          case ArrivalPattern::Uniform:
            t += rng.uniform(0.5 * mean_interarrival,
                             1.5 * mean_interarrival);
            break;
          case ArrivalPattern::Bursty:
            // Bursts arrive back-to-back; gaps between bursts are
            // stretched so the long-run rate matches the load factor.
            if (burst_left > 0) {
                --burst_left;
            } else {
                const double burst_mean =
                    std::max(1.0, cfg.burstMean);
                burst_left = burst_mean > 1.0
                    ? static_cast<int>(
                          rng.exponential(burst_mean - 1.0) + 0.5)
                    : 0;
                t += rng.exponential(
                    mean_interarrival * (1.0 + burst_left));
            }
            break;
        }
        const std::size_t m = rng.categorical(uniform_pick);

        sim::JobSpec spec;
        spec.id = i;
        spec.model = &dnn::getModel(models[m]);
        spec.dispatch = static_cast<Cycles>(t);
        spec.priority =
            static_cast<int>(rng.categorical(priorityWeights()));
        spec.slaLatency = static_cast<Cycles>(
            qos_mult * static_cast<double>(iso[m]));
        specs.push_back(spec);
    }
    return specs;
}

} // namespace moca::workload
