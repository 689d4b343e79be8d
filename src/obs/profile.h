/**
 * @file
 * Wall-clock phase profiling scopes.  All timing goes through the
 * detlint-sanctioned moca::WallTimer shim (common/walltime.h) — no
 * raw std::chrono — and is purely diagnostic: phase totals feed
 * reports and bench tables, never simulation decisions.
 *
 * This is the one code path every bench reports phase timings
 * through: accumulate with ScopedPhase (or add()), then print
 * summary() / render().
 */

#ifndef MOCA_OBS_PROFILE_H
#define MOCA_OBS_PROFILE_H

#include <string>
#include <utility>
#include <vector>

#include "common/walltime.h"

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

    /** One-line "phase 0.123s  phase2 0.045s" summary ("" if empty). */
    std::string summary() const;

    /** Multi-line breakdown table with per-phase share of total. */
    std::string render(const std::string &title) const;

  private:
    std::vector<std::pair<std::string, double>> phases_;
};

/** RAII scope: adds its WallTimer lap to a phase on destruction. */
class ScopedPhase
{
  public:
    ScopedPhase(PhaseProfiler &profiler, std::string phase)
        : profiler_(profiler), phase_(std::move(phase))
    {
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

    ~ScopedPhase() { profiler_.add(phase_, timer_.seconds()); }

  private:
    PhaseProfiler &profiler_;
    std::string phase_;
    WallTimer timer_;
};

} // namespace moca::obs

#endif // MOCA_OBS_PROFILE_H
