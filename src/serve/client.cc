#include "serve/client.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/rng.h"
#include "exp/sweep/sweep.h"

namespace moca::serve {

namespace {

// Backoff before retry r: min(kBackoffCap, kBackoffFactor^(r-1)) units.
constexpr double kBackoffFactor = 2.0;
constexpr double kBackoffCap = 8.0;

// QoS-M target = kQosScale x isolated single-tile latency.
constexpr double kQosScale = 4.0;

} // namespace

Cycles
retryBackoff(Cycles unit, int attempt)
{
    if (attempt < 1)
        fatal("retryBackoff: attempt numbers are 1-based (got %d)",
              attempt);
    const double units =
        std::min(kBackoffCap, std::pow(kBackoffFactor, attempt - 1));
    return static_cast<Cycles>(units * static_cast<double>(unit));
}

ClientPool::ClientPool(
    const ClientPoolConfig &cfg,
    const std::function<Cycles(dnn::ModelId)> &isolated_latency)
    : cfg_(cfg)
{
    if (cfg_.numClients < 1)
        fatal("client pool needs at least one client (got %d)",
              cfg_.numClients);
    if (cfg_.requestsPerClient < 1)
        fatal("clients need at least one request each (got %d)",
              cfg_.requestsPerClient);
    if (cfg_.thinkFactor < 0.0 || cfg_.timeoutScale < 0.0)
        fatal("think factor and timeout scale must be >= 0");
    if (cfg_.maxRetries < 0)
        fatal("maxRetries must be >= 0 (got %d)", cfg_.maxRetries);

    const std::vector<dnn::ModelId> &models =
        workload::workloadSetModels(cfg_.set);
    // QoS classes L/M/H in a 1:2:1 ratio.
    const std::vector<double> qos_shares = {0.25, 0.50, 0.25};

    double mean_iso = 0.0;
    for (dnn::ModelId id : models)
        mean_iso += static_cast<double>(isolated_latency(id));
    mean_iso /= static_cast<double>(models.size());
    meanIso_ = static_cast<Cycles>(mean_iso);
    const double think_mean = cfg_.thinkFactor * mean_iso;

    // Every request draws from its own (seed, id)-derived stream:
    // think delay first, then the shared attribute draw.  Request
    // attributes are thus independent of every control knob and of
    // the order the closed loop ends up issuing them in.
    requests_.reserve(static_cast<std::size_t>(cfg_.numClients) *
                      static_cast<std::size_t>(
                          cfg_.requestsPerClient));
    for (int c = 0; c < cfg_.numClients; ++c) {
        for (int s = 0; s < cfg_.requestsPerClient; ++s) {
            const int id = c * cfg_.requestsPerClient + s;
            Rng rng(exp::deriveCellSeed(
                cfg_.seed, static_cast<std::size_t>(id)));
            ClientRequest req;
            req.id = id;
            req.client = c;
            req.seq = s;
            req.think = static_cast<Cycles>(
                rng.exponential(std::max(1.0, think_mean)));
            req.task = cluster::drawTaskAttributes(
                rng, models, qos_shares, kQosScale, isolated_latency);
            req.task.id = id;
            if (cfg_.timeoutScale > 0.0)
                req.timeout = std::max<Cycles>(
                    1, static_cast<Cycles>(
                           cfg_.timeoutScale *
                           static_cast<double>(req.task.slaLatency)));
            requests_.push_back(req);
        }
    }
}

} // namespace moca::serve
