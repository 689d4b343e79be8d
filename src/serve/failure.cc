#include "serve/failure.h"

#include <algorithm>

#include "common/log.h"

namespace moca::serve {

namespace {

/** Never fail a SoC while at most this many are not Down. */
constexpr int kMinUp = 1;

} // namespace

const char *
inflightPolicyName(InflightPolicy policy)
{
    switch (policy) {
      case InflightPolicy::Requeue: return "requeue";
      case InflightPolicy::Drop: return "drop";
    }
    return "?";
}

InflightPolicy
inflightPolicyFromName(const std::string &name)
{
    if (name == "requeue")
        return InflightPolicy::Requeue;
    if (name == "drop")
        return InflightPolicy::Drop;
    fatal("unknown in-flight failure policy '%s'; expected requeue "
          "or drop", name.c_str());
}

FailureInjector::FailureInjector(const FailureConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed)
{
    if (cfg_.rate < 0.0)
        fatal("failure rate must be >= 0 (got %g)", cfg_.rate);
    if (cfg_.meanDowntime <= 0.0)
        fatal("mean downtime must be > 0 cycles (got %g)",
              cfg_.meanDowntime);
    if (enabled())
        firstFailure_ = drawGap();
}

Cycles
FailureInjector::drawGap()
{
    // Fleet-wide MTBF: rate failures per Gcycle.
    const double mean = 1e9 / cfg_.rate;
    return std::max<Cycles>(1,
                            static_cast<Cycles>(
                                rng_.exponential(mean)));
}

FailureInjector::FailPlan
FailureInjector::plan(Cycles now, int num_candidates)
{
    FailPlan out;
    if (num_candidates > kMinUp) {
        out.victim = static_cast<int>(rng_.uniformInt(
            0, static_cast<std::int64_t>(num_candidates) - 1));
        out.recoverAt = now +
            std::max<Cycles>(1, static_cast<Cycles>(rng_.exponential(
                                    cfg_.meanDowntime)));
    }
    out.nextFailAt = now + drawGap();
    return out;
}

} // namespace moca::serve
