#include "obs/profile.h"

#include "common/log.h"

namespace moca::obs {

void
PhaseProfiler::add(const std::string &phase, double seconds)
{
    for (auto &[name, total] : phases_) {
        if (name == phase) {
            total += seconds;
            return;
        }
    }
    phases_.emplace_back(phase, seconds);
}

double
PhaseProfiler::seconds(const std::string &phase) const
{
    for (const auto &[name, total] : phases_)
        if (name == phase)
            return total;
    return 0.0;
}

std::string
PhaseProfiler::render(const std::string &title) const
{
    double sum = 0.0;
    for (const auto &[name, total] : phases_)
        sum += total;
    std::string out = title.empty() ? std::string() : title + "\n";
    for (const auto &[name, total] : phases_)
        out += strprintf("  %-16s %9.3f s  %5.1f%%\n", name.c_str(),
                         total, sum > 0.0 ? 100.0 * total / sum : 0.0);
    return out;
}

} // namespace moca::obs
