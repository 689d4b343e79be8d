/**
 * @file
 * Wall-clock phase accumulation.  Callers time their phases with the
 * detlint-sanctioned moca::WallTimer shim (common/walltime.h) — no
 * raw std::chrono — and add() the seconds here.  Phase totals are
 * purely diagnostic: they feed reports and bench tables (the PDES
 * phase tables of cluster_scale and serve_loop, via render()), never
 * simulation decisions.
 */

#ifndef MOCA_OBS_PROFILE_H
#define MOCA_OBS_PROFILE_H

#include <string>
#include <utility>
#include <vector>

namespace moca::obs {

/** Accumulated wall-clock seconds per named phase, in first-seen
 *  order. */
class PhaseProfiler
{
  public:
    /** Accumulate `seconds` into `phase` (creates it on first use). */
    void add(const std::string &phase, double seconds);

    /** Total seconds recorded for `phase` (0 if never seen). */
    double seconds(const std::string &phase) const;

    /** (phase, seconds) pairs in first-seen order. */
    const std::vector<std::pair<std::string, double>> &
    entries() const { return phases_; }

    /** Multi-line breakdown table with per-phase share of total. */
    std::string render(const std::string &title) const;

  private:
    std::vector<std::pair<std::string, double>> phases_;
};

} // namespace moca::obs

#endif // MOCA_OBS_PROFILE_H
