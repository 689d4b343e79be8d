/**
 * @file
 * Reactive fleet autoscaler for the serving subsystem: at fixed
 * control-epoch boundaries it reads one load signal — mean queue
 * depth per Up SoC, or the p99 of SLA-normalized client latency over
 * a sliding completion window — and recommends growing or shrinking
 * the Up capacity by one SoC, with hysteresis between the two
 * thresholds so the fleet does not flap.
 *
 * The scaler only *recommends*; the serve driver owns the mechanics:
 * scale-up re-activates a drained slot (failed slots are not
 * eligible — they come back via recovery, not scaling), scale-down
 * puts the highest-indexed Up slot into Draining — it stops taking
 * new placements but keeps running until its queue empties, so no
 * accepted work is ever lost to a scaling decision.  All choices are
 * index-deterministic, keeping the closed loop bit-reproducible.
 */

#ifndef MOCA_SERVE_AUTOSCALER_H
#define MOCA_SERVE_AUTOSCALER_H

#include <cstddef>
#include <vector>

#include "common/units.h"

namespace moca::serve {

/** Load signal the autoscaler reacts to. */
enum class ScaleSignal
{
    Depth, ///< Mean outstanding (queued+running) tasks per Up SoC.
    P99,   ///< p99 of SLA-normalized client latency, sliding window.
};

/** Autoscaler parameters. */
struct AutoscalerConfig
{
    bool enabled = false;

    int minSocs = 1; ///< Never drain below this many Up SoCs.
    int maxSocs = 0; ///< Never grow above this; 0 = full fleet.

    ScaleSignal signal = ScaleSignal::Depth;

    /**
     * Hysteresis band: scale up (one SoC) when the signal exceeds
     * `upThreshold`, down when it drops below `downThreshold`, hold
     * in between.  Units: tasks per Up SoC for `depth`; multiples of
     * the SLA target for `p99` (1.0 = tail exactly at the SLO).
     */
    double upThreshold = 8.0;
    double downThreshold = 2.0;

    /** Evaluation period in cycles (one decision per tick). */
    Cycles interval = 500'000;

    /** Responses in the sliding p99 window. */
    int window = 64;
};

/** One scaling recommendation. */
enum class ScaleAction
{
    None,
    Up,   ///< Activate one drained SoC.
    Down, ///< Drain one Up SoC.
};

/**
 * The decision logic: feed it every client-observed response, ask it
 * at each control tick.  Pure bookkeeping — no engine access.
 */
class Autoscaler
{
  public:
    explicit Autoscaler(const AutoscalerConfig &cfg);

    const AutoscalerConfig &config() const { return cfg_; }

    /** Record a client-observed response's SLA-normalized latency
     *  (latency / SLA target) into the sliding p99 window. */
    void recordResponse(double norm_latency);

    /**
     * Evaluate the signal at a control tick.
     * @param up_socs        SoCs currently accepting placements.
     * @param outstanding    total queued+running tasks on them.
     * @return the recommendation; Up is only returned below the max,
     *         Down only above the min, and never before the p99
     *         window has filled (for the `p99` signal).
     */
    ScaleAction evaluate(int up_socs, long outstanding);

  private:
    AutoscalerConfig cfg_;
    std::vector<double> window_; ///< Ring buffer of norm latencies.
    std::size_t windowAt_ = 0;
    std::size_t windowFill_ = 0;
};

} // namespace moca::serve

#endif // MOCA_SERVE_AUTOSCALER_H
