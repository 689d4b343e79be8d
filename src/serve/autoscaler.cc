#include "serve/autoscaler.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace moca::serve {

Autoscaler::Autoscaler(const AutoscalerConfig &cfg) : cfg_(cfg)
{
    if (cfg_.minSocs < 1)
        fatal("autoscaler minSocs must be >= 1 (got %d)",
              cfg_.minSocs);
    if (cfg_.maxSocs != 0 && cfg_.maxSocs < cfg_.minSocs)
        fatal("autoscaler maxSocs %d below minSocs %d", cfg_.maxSocs,
              cfg_.minSocs);
    if (cfg_.downThreshold > cfg_.upThreshold)
        fatal("autoscaler hysteresis band inverted: down %g > up %g",
              cfg_.downThreshold, cfg_.upThreshold);
    if (cfg_.interval < 1)
        fatal("autoscaler interval must be >= 1 cycle");
    if (cfg_.window < 1)
        fatal("autoscaler p99 window must be >= 1 response");
    window_.assign(static_cast<std::size_t>(cfg_.window), 0.0);
}

void
Autoscaler::recordResponse(double norm_latency)
{
    window_[windowAt_] = norm_latency;
    windowAt_ = (windowAt_ + 1) % window_.size();
    windowFill_ = std::min(windowFill_ + 1, window_.size());
}

ScaleAction
Autoscaler::evaluate(int up_socs, long outstanding)
{
    if (up_socs < 1)
        return ScaleAction::None;

    double signal = 0.0;
    switch (cfg_.signal) {
      case ScaleSignal::Depth:
        signal = static_cast<double>(outstanding) /
            static_cast<double>(up_socs);
        break;
      case ScaleSignal::P99: {
        // Hold until the window fills: a handful of early responses
        // is not a tail.
        if (windowFill_ < window_.size())
            return ScaleAction::None;
        std::vector<double> sorted(window_.begin(), window_.end());
        std::sort(sorted.begin(), sorted.end());
        const auto idx = static_cast<std::size_t>(std::min<double>(
            static_cast<double>(sorted.size() - 1),
            std::ceil(0.99 * static_cast<double>(sorted.size())) -
                1.0));
        signal = sorted[idx];
        break;
      }
    }

    if (signal > cfg_.upThreshold &&
        (cfg_.maxSocs == 0 || up_socs < cfg_.maxSocs))
        return ScaleAction::Up;
    if (signal < cfg_.downThreshold && up_socs > cfg_.minSocs)
        return ScaleAction::Down;
    return ScaleAction::None;
}

} // namespace moca::serve
