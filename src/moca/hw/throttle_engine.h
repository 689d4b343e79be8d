/**
 * @file
 * The MoCA hardware engine (paper Sec. III-B, Fig. 4): a per-tile
 * *Access Counter* that tracks memory accesses issued during a
 * monitored time window, and a *Thresholding Module* that inserts
 * "bubbles" (blocks further memory request issue) once the counter
 * exceeds the threshold configured by the MoCA runtime.  Both are
 * lightweight FSMs + counters sitting between the accelerator's
 * load/store queues and its memory request generator.
 *
 * The model is cycle-accurate: step() advances one cycle and decides
 * whether a memory request may issue.  A batched advance() covers many
 * cycles at once for the quantum-stepped system simulator; property
 * tests assert the two paths agree.
 *
 * Reconfiguration costs a handful of cycles (the paper reports 5-10
 * cycles to reconfigure the DMA's issue rate); configure() models this
 * by blocking issue for `kReconfigCycles`.
 */

#ifndef MOCA_HW_THROTTLE_ENGINE_H
#define MOCA_HW_THROTTLE_ENGINE_H

#include <algorithm>
#include <cstdint>

#include "common/units.h"

namespace moca::hw {

/** Runtime-programmed throttle parameters (Algorithm 2 outputs). */
struct ThrottleConfig
{
    /**
     * Monitored window length in cycles.  0 disables throttling
     * (Algorithm 2 line 23: no contention -> window = 0).
     */
    Cycles windowCycles = 0;

    /**
     * Maximum number of memory accesses permitted per window.
     * Meaningful only when windowCycles > 0.
     */
    std::uint64_t thresholdLoad = 0;

    bool enabled() const { return windowCycles > 0; }
};

/** Counters exposed for area/energy accounting and tests. */
struct ThrottleStats
{
    std::uint64_t accessesGranted = 0;
    std::uint64_t bubblesInserted = 0; ///< Cycles blocked by threshold.
    std::uint64_t windowsElapsed = 0;
    std::uint64_t reconfigurations = 0;
};

/**
 * Access Counter + Thresholding Module for one accelerator tile.
 */
class ThrottleEngine
{
  public:
    /** DMA reconfiguration latency in cycles (paper: 5-10). */
    static constexpr Cycles kReconfigCycles = 8;

    /**
     * Program a new window/threshold.  Takes effect immediately; the
     * engine blocks issue for kReconfigCycles to model the
     * configuration command latency.
     */
    void configure(const ThrottleConfig &cfg);

    /** Currently programmed configuration. */
    const ThrottleConfig &config() const { return cfg_; }

    /**
     * Advance one cycle.
     *
     * @param wants_issue the DMA has a memory request ready this cycle.
     * @return true when the request may issue (access granted and
     *         counted); false when a bubble is inserted or no request
     *         was pending.
     */
    bool step(bool wants_issue);

    /**
     * Batched equivalent of calling step(true) for `cycles` cycles
     * with at most `max_requests` requests pending.
     *
     * @return number of accesses granted during the span.
     */
    std::uint64_t advance(Cycles cycles, std::uint64_t max_requests)
    {
        // Inline fast path: a disabled engine past its reconfiguration
        // stall grants one access per cycle up to demand.
        if (!cfg_.enabled() && reconfig_stall_ == 0) {
            const std::uint64_t granted =
                std::min<std::uint64_t>(cycles, max_requests);
            stats_.accessesGranted += granted;
            return granted;
        }
        return advanceGated(cycles, max_requests);
    }

    /**
     * Non-mutating version of advance(): how many accesses *could* be
     * granted over the next `cycles` cycles given the current window
     * state, assuming a request is pending every cycle.  Used by the
     * simulator's demand phase before bandwidth arbitration.
     */
    std::uint64_t peekAllowance(Cycles cycles) const
    {
        if (!cfg_.enabled() && reconfig_stall_ == 0)
            return cycles;
        return peekGated(cycles);
    }

    /** Accesses already counted in the current window. */
    std::uint64_t windowCount() const { return window_count_; }

    /** Cycles remaining until the current window rolls over. */
    Cycles cyclesUntilWindowEnd() const;

    /**
     * Cycles until the engine's issue-gating state next changes on
     * its own: the reconfiguration stall ends, or the monitored
     * window rolls over and the access budget refreshes.  0 means no
     * scheduled change (disabled and idle).  The event-driven
     * simulation kernel uses this to bound a time step instead of
     * polling the engine every quantum.
     */
    Cycles cyclesUntilNextChange() const;

    /** True when the engine is currently inserting bubbles. */
    bool throttled() const;

    const ThrottleStats &stats() const { return stats_; }

    /** Reset counters and window phase (e.g. at job start). */
    void reset();

  private:
    ThrottleConfig cfg_;
    Cycles window_pos_ = 0;       ///< Cycle offset within the window.
    std::uint64_t window_count_ = 0;
    Cycles reconfig_stall_ = 0;   ///< Remaining reconfig dead cycles.
    ThrottleStats stats_;

    void rollWindowIfNeeded();
    /** advance()/peekAllowance() of an enabled or stalled engine. */
    std::uint64_t advanceGated(Cycles cycles, std::uint64_t max_requests);
    std::uint64_t peekGated(Cycles cycles) const;
};

} // namespace moca::hw

#endif // MOCA_HW_THROTTLE_ENGINE_H
