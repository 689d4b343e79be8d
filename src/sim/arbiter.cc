#include "sim/arbiter.h"

#include <algorithm>

#include "common/log.h"

namespace moca::sim {

void
detail::badDemand(double bytes, double weight)
{
    if (bytes < 0.0)
        panic("negative bandwidth demand %f", bytes);
    panic("non-positive arbiter weight %f", weight);
}

std::vector<double>
allocateBandwidth(const std::vector<BwDemand> &demands, double capacity)
{
    std::vector<double> grants;
    std::vector<char> done;
    allocateBandwidth(demands, capacity, grants, done);
    return grants;
}

void
allocateBandwidth(const std::vector<BwDemand> &demands, double capacity,
                  std::vector<double> &grants, std::vector<char> &done)
{
    grants.resize(demands.size());
    maxMinFill(
        demands.size(), capacity,
        [&](std::size_t i) { return demands[i].bytes; },
        [&](std::size_t i) { return demands[i].weight; },
        [&](std::size_t i) -> double & { return grants[i]; }, done);
}

std::vector<double>
allocateBandwidthProportional(const std::vector<BwDemand> &demands,
                              double capacity)
{
    std::vector<double> grants;
    std::vector<char> done;
    allocateBandwidthProportional(demands, capacity, grants, done);
    return grants;
}

void
allocateBandwidthProportional(const std::vector<BwDemand> &demands,
                              double capacity,
                              std::vector<double> &grants,
                              std::vector<char> &done)
{
    grants.resize(demands.size());
    proportionalFill(
        demands.size(), capacity,
        [&](std::size_t i) { return demands[i].bytes; },
        [&](std::size_t i) { return demands[i].weight; },
        [&](std::size_t i) -> double & { return grants[i]; }, done);
}

ThrashOutcome
applyDramThrash(double total_demand, double max_demand, double capacity,
                double onset, double factor)
{
    ThrashOutcome out;
    out.capacity = capacity;
    if (capacity <= 0.0 || total_demand <= capacity * onset)
        return out;

    const double over =
        std::min(1.0, (total_demand / capacity - onset) / 2.0);
    const double interleave =
        total_demand > 0.0 ? 1.0 - max_demand / total_demand : 0.0;
    const double loss = factor * over * 2.0 * std::min(0.5, interleave);
    if (loss > 0.0) {
        out.thrashed = true;
        out.lostBytes = capacity * loss;
        out.capacity = capacity * (1.0 - loss);
    }
    return out;
}

} // namespace moca::sim
