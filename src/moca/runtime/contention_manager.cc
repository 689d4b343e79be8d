#include "moca/runtime/contention_manager.h"

#include <algorithm>

#include "common/log.h"
#include "sim/arbiter.h"

namespace moca::runtime {

ContentionDecision
ContentionManager::onBlockBoundary(const JobSnapshot &snap)
{
    if (snap.model == nullptr)
        panic("contention manager: snapshot without model");

    ContentionDecision d;

    // Algorithm 2 lines 1-4: estimate the upcoming block and the
    // remaining network with Algorithm 1.
    const auto &blocks = snap.model->blocks();
    std::size_t block_idx = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        if (snap.nextLayer >= blocks[b].first &&
            snap.nextLayer < blocks[b].first + blocks[b].count) {
            block_idx = b;
            break;
        }
    }
    const LayerEstimate block =
        model_.estimateBlock(*snap.model, block_idx, snap.numTiles);
    const LayerEstimate remain =
        model_.estimateRemaining(*snap.model, snap.nextLayer,
                                 snap.numTiles);

    // Unthrottled bandwidth demand of the upcoming block (line 4).
    const double demand = block.bwRate();

    // Lines 5-6: dynamic priority score from the static priority and
    // the remaining-work-to-slack ratio.  Two guards keep the urgency
    // term meaningful: a job whose deadline has already passed cannot
    // be saved and falls back to its static priority (no inversion by
    // hopeless jobs), and the urgency boost is capped at twice the
    // static-priority range.
    if (snap.slackCycles <= 0.0) {
        d.score = static_cast<double>(snap.userPriority);
    } else {
        const double slack = std::max(kMinSlack, snap.slackCycles);
        const double urgency =
            std::min(kMaxUrgency, remain.prediction / slack);
        d.score = static_cast<double>(snap.userPriority) + urgency;
    }

    // Lines 9-14: publish this job's demand, then compare the
    // system's total demand against the DRAM bandwidth ceiling.
    scoreboard_.update(snap.appId, demand, d.score);
    double total_demand = 0.0;
    for (const auto &[id, e] : scoreboard_.entries())
        total_demand += e.bwRate;
    const double overflow = total_demand - cfg_.dramBytesPerCycle;

    // Only memory-bounded execution is worth regulating: the paper
    // resolves contention "by throttling excessive memory accesses
    // from memory-bounded layers up to a limit" (Sec. V-C).  A
    // compute-bound block's issue rate is low anyway, and capping it
    // would only forfeit work-conservation.
    const bool mem_hungry =
        demand > kThrottleWorthyShare * cfg_.dramBytesPerCycle;

    if (overflow > 0.0 && mem_hungry) {
        // Lines 15-18: contention detected.  Allocate the channel in
        // proportion to score-weighted demand, capped at each job's
        // own demand (leftover redistributes).  This is the stable
        // fixed point of the listing's sequential overflow shaving:
        // every job computing it from the same scoreboard arrives at
        // the same allocation, so co-runner sweeps cannot oscillate.
        demands_.clear();
        std::size_t self_idx = 0;
        for (const auto &[id, e] : scoreboard_.entries()) {
            if (id == snap.appId)
                self_idx = demands_.size();
            demands_.push_back({e.bwRate, e.score + 1.0});
        }
        sim::allocateBandwidthProportional(
            demands_, cfg_.dramBytesPerCycle, grants_, done_);
        d.contention = true;
        d.bwRate = std::max(grants_[self_idx],
                            0.05 * cfg_.dramBytesPerCycle);
        if (tuning_.fixedThreshold) {
            // Score-oblivious ablation: every throttled job gets the
            // equal 1/N slice of the channel, capped at its demand.
            d.bwRate = std::min(
                demand,
                cfg_.dramBytesPerCycle /
                    static_cast<double>(scoreboard_.entries().size()));
            d.bwRate = std::max(d.bwRate,
                                0.05 * cfg_.dramBytesPerCycle);
        }

        // Line 18: update the prediction for the allocated rate.
        d.prediction = static_cast<double>(block.fromDram) / d.bwRate;

        // Lines 20-21 (see header comment on units): window =
        // Prediction / Num_tile, clamped so pacing stays smooth
        // relative to layer lengths; the per-window access budget is
        // sized so the per-tile byte rate matches the allocation,
        // with a modest burst margin (Algorithm 1's estimates are
        // conservative) that keeps the channel work-conserving when
        // co-runners are in compute phases.
        const double window_d = tuning_.windowOverrideCycles > 0
            ? static_cast<double>(tuning_.windowOverrideCycles)
            : std::clamp(
                  d.prediction / static_cast<double>(snap.numTiles),
                  64.0, 65536.0);
        const double headroom = 1.15;
        const double per_tile_rate = headroom *
            (static_cast<double>(block.totalMem) / snap.numTiles) /
            d.prediction;
        const double thr_bytes = per_tile_rate * window_d;
        d.hwConfig.windowCycles = static_cast<Cycles>(window_d);
        d.hwConfig.thresholdLoad = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                thr_bytes / static_cast<double>(cfg_.dmaBeatBytes)));
        d.nextChangeCycles = d.hwConfig.windowCycles;
    } else {
        // Lines 22-24: no contention (or not memory-bounded enough
        // to regulate): no throttling.
        d.contention = overflow > 0.0;
        d.bwRate = demand;
        d.prediction = block.prediction;
        d.hwConfig = hw::ThrottleConfig{}; // window = 0, threshold = 0
    }
    return d;
}

} // namespace moca::runtime
