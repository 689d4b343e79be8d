#include "cluster/workload.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/rng.h"

namespace moca::cluster {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

} // anonymous namespace

const char *
arrivalProcessName(ArrivalProcess process)
{
    switch (process) {
      case ArrivalProcess::Poisson: return "poisson";
      case ArrivalProcess::Mmpp: return "mmpp";
      case ArrivalProcess::Diurnal: return "diurnal";
    }
    return "?";
}

ArrivalProcess
arrivalProcessFromName(const std::string &name)
{
    if (name == "poisson")
        return ArrivalProcess::Poisson;
    if (name == "mmpp" || name == "bursty")
        return ArrivalProcess::Mmpp;
    if (name == "diurnal")
        return ArrivalProcess::Diurnal;
    fatal("unknown arrival process '%s'; expected poisson, mmpp "
          "(bursty), or diurnal", name.c_str());
}

ClusterTask
drawTaskAttributes(Rng &rng, const std::vector<dnn::ModelId> &models,
                   const std::vector<double> &qos_shares,
                   double qos_scale,
                   const std::function<Cycles(dnn::ModelId)>
                       &isolated_latency)
{
    ClusterTask task;
    task.model = models[static_cast<std::size_t>(rng.uniformInt(
        0, static_cast<std::int64_t>(models.size()) - 1))];
    task.priority = static_cast<int>(
        rng.categorical(workload::priorityWeights()));
    switch (rng.categorical(qos_shares)) {
      case 0: task.qos = workload::QosLevel::Light; break;
      case 1: task.qos = workload::QosLevel::Medium; break;
      default: task.qos = workload::QosLevel::Hard; break;
    }
    task.slaLatency = static_cast<Cycles>(
        workload::qosMultiplier(task.qos) * qos_scale *
        static_cast<double>(isolated_latency(task.model)));
    return task;
}

std::vector<ClusterTask>
synthesizeTasks(const SynthConfig &cfg,
                const std::function<Cycles(dnn::ModelId)> &isolated_latency)
{
    if (cfg.numTasks < 1)
        fatal("cluster trace needs at least one task");
    if (cfg.loadFactor <= 0.0)
        fatal("loadFactor must be positive");
    if (cfg.fleetTiles < 1)
        fatal("fleetTiles must be >= 1");

    const std::vector<dnn::ModelId> &models =
        cfg.mix.empty() ? workload::workloadSetModels(cfg.set)
                        : cfg.mix;
    if (models.empty())
        fatal("cluster trace needs a non-empty model mix");

    const std::vector<double> qos_shares = {
        cfg.qosLightShare, cfg.qosMediumShare, cfg.qosHardShare};
    if (qos_shares[0] < 0 || qos_shares[1] < 0 || qos_shares[2] < 0 ||
        qos_shares[0] + qos_shares[1] + qos_shares[2] <= 0.0)
        fatal("QoS class shares must be non-negative and sum > 0");

    Rng rng(cfg.seed);

    // Rate calibration mirrors workload::generateTrace, scaled to the
    // whole fleet's tile capacity.  Each mix entry asks the oracle
    // once; the tasks below read this memo.
    std::vector<Cycles> iso(models.size());
    double mean_iso = 0.0;
    for (std::size_t m = 0; m < models.size(); ++m) {
        iso[m] = isolated_latency(models[m]);
        mean_iso += static_cast<double>(iso[m]);
    }
    mean_iso /= static_cast<double>(models.size());
    const std::function<Cycles(dnn::ModelId)> memo = [&](dnn::ModelId id) {
        return iso[static_cast<std::size_t>(
            std::find(models.begin(), models.end(), id) - models.begin())];
    };
    const double mean_gap =
        mean_iso / (cfg.loadFactor * cfg.fleetTiles);

    // MMPP: the base state is *slower* than the mean so that drawing
    // `burstDuty` of the arrivals from the `burstRateBoost`x-faster
    // burst state keeps the long-run rate on target:
    // (1-duty)*base_gap + duty*base_gap/boost == mean_gap.
    const double boost = std::max(1.0, cfg.burstRateBoost);
    const double burst_len = std::max(1.0, cfg.burstLen);
    // The embedded chain cannot spend more than
    // burstLen/(burstLen+1) of its arrivals bursting (base episodes
    // are at least one arrival long); clamp the requested duty to
    // what is achievable so the rate calibration below matches the
    // dynamics actually simulated.
    const double duty =
        std::min({0.95, std::max(0.0, cfg.burstDuty),
                  burst_len / (burst_len + 1.0)});
    const double base_gap =
        mean_gap / ((1.0 - duty) + duty / boost);
    const double burst_exit_p = 1.0 / burst_len;
    // duty == 0 (or boost == 1) disables bursts outright: the stream
    // degenerates to plain Poisson at the calibrated rate.
    const bool bursts = duty > 0.0 && boost > 1.0;
    const double base_exit_p =
        bursts ? duty / (burst_len * (1.0 - duty)) : 0.0;

    // Diurnal: period from the expected trace duration.
    const double amp =
        std::min(0.95, std::max(0.0, cfg.diurnalAmplitude));
    const double period = cfg.numTasks * mean_gap /
        std::max(1e-9, cfg.diurnalPeriods);

    std::vector<ClusterTask> tasks;
    tasks.reserve(static_cast<std::size_t>(cfg.numTasks));
    double t = 0.0;
    bool burst = false;
    for (int i = 0; i < cfg.numTasks; ++i) {
        switch (cfg.process) {
          case ArrivalProcess::Poisson:
            t += rng.exponential(mean_gap);
            break;
          case ArrivalProcess::Mmpp:
            // Markov chain embedded at arrivals: geometric episode
            // lengths, exponential gaps at the state's rate.
            t += rng.exponential(burst ? base_gap / boost : base_gap);
            if (rng.uniform() < (burst ? burst_exit_p : base_exit_p))
                burst = !burst;
            break;
          case ArrivalProcess::Diurnal: {
            // Rate modulated at the current phase of the day.
            const double rate_scale = 1.0 +
                amp * std::sin(kTwoPi * t / period);
            t += rng.exponential(mean_gap /
                                 std::max(0.05, rate_scale));
            break;
          }
        }

        ClusterTask task = drawTaskAttributes(rng, models, qos_shares,
                                              cfg.qosScale, memo);
        task.id = i;
        task.arrival = static_cast<Cycles>(t);
        tasks.push_back(task);
    }
    return tasks;
}

std::vector<ClusterTask>
tasksFromJobSpecs(const std::vector<sim::JobSpec> &specs)
{
    std::vector<ClusterTask> tasks;
    tasks.reserve(specs.size());
    for (const auto &spec : specs) {
        ClusterTask task;
        task.id = spec.id;
        task.model = dnn::modelIdFromName(spec.model->name());
        task.arrival = spec.dispatch;
        task.priority = spec.priority;
        task.qos = workload::QosLevel::Medium;
        task.slaLatency = spec.slaLatency;
        tasks.push_back(task);
    }
    return tasks;
}

} // namespace moca::cluster
