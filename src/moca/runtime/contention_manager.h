/**
 * @file
 * Algorithm 2 of the paper: the MoCA runtime's contention detection
 * and hardware update.  Invoked per job at layer-block boundaries, it
 *
 *  1. estimates the upcoming block's latency and DRAM bandwidth
 *     demand with Algorithm 1;
 *  2. computes the job's *dynamic priority score*
 *       score = user_priority + remain_prediction / slack
 *     so that both the static priority and the time left to the SLA
 *     target shape the allocation;
 *  3. sums co-runners' bandwidth usage from the scoreboard and checks
 *     for overflow against the DRAM bandwidth;
 *  4. on contention, shaves the job's bandwidth allocation in
 *     proportion to the co-runners' score-weighted usage and programs
 *     the MoCA hardware throttle (window + threshold_load); without
 *     contention the throttle is disabled (window = 0).
 *
 * Note on units: the paper's listing sets
 *   threshold_load = Total_MEM / Num_tile, window = Prediction / Num_tile
 * which preserves the intended aggregate rate only for Num_tile = 1.
 * We keep the window = Prediction / Num_tile responsiveness and size
 * the per-window access budget so the per-tile byte rate equals
 * (Total_MEM / Num_tile) / Prediction, preserving the allocation for
 * any tile count.
 */

#ifndef MOCA_RUNTIME_CONTENTION_MANAGER_H
#define MOCA_RUNTIME_CONTENTION_MANAGER_H

#include <vector>

#include "moca/hw/throttle_engine.h"
#include "moca/runtime/latency_model.h"
#include "moca/runtime/scoreboard.h"
#include "sim/arbiter.h"

namespace moca::runtime {

/** Inputs describing the job at a reconfiguration point. */
struct JobSnapshot
{
    int appId = -1;
    const dnn::Model *model = nullptr;
    std::size_t nextLayer = 0; ///< First layer still to execute.
    int numTiles = 1;
    int userPriority = 0;
    double slackCycles = 0.0;  ///< Time left to the SLA target.
};

/** Decision produced by one Algorithm 2 invocation. */
struct ContentionDecision
{
    bool contention = false;     ///< overflow > 0 detected.
    double bwRate = 0.0;         ///< Allocated DRAM rate, bytes/cycle.
    double score = 0.0;          ///< Dynamic priority score.
    double prediction = 0.0;     ///< (Re-)predicted block latency.
    hw::ThrottleConfig hwConfig; ///< Window/threshold for the engines.

    /**
     * Decision metadata for event-driven callers: cycles until the
     * *programmed* throttle state first changes on its own — one
     * monitoring window (0 when no throttle was scheduled).  Note
     * the live engine is the authority once programmed
     * (hw::ThrottleEngine::cyclesUntilNextChange additionally
     * reports the reconfiguration stall); the simulator's event
     * kernel bounds its steps on the engine, not on this field.
     */
    Cycles nextChangeCycles = 0;
};

/** Tuning of the Algorithm 2 hardware-update step. */
struct ContentionTuning
{
    /** Fixed monitoring-window length in cycles; 0 derives the
     *  window from the block prediction (the paper's listing). */
    Cycles windowOverrideCycles = 0;

    /** Size thresholds from the equal 1/N channel share instead of
     *  the score-weighted allocation (ablation). */
    bool fixedThreshold = false;
};

/** The MoCA runtime's contention detection + HW update module. */
class ContentionManager
{
  public:
    explicit ContentionManager(const sim::SocConfig &cfg,
                               bool sparsity_aware = true,
                               const ContentionTuning &tuning = {})
        : cfg_(cfg), tuning_(tuning), model_(cfg, sparsity_aware)
    {
    }

    /**
     * Run Algorithm 2 for one job at a block boundary.  Updates the
     * scoreboard with the job's new bandwidth usage and score and
     * returns the throttle configuration to program.
     */
    ContentionDecision onBlockBoundary(const JobSnapshot &snap);

    /** Remove a finished job from the scoreboard. */
    void onJobComplete(int app_id) { scoreboard_.remove(app_id); }

    const Scoreboard &scoreboard() const { return scoreboard_; }

    /** The Algorithm 1 model the manager predicts blocks with; its
     *  owner may share it (MocaPolicy scores tasks with it). */
    const LatencyModel &model() const { return model_; }

    /** Minimum slack used in the urgency ratio. */
    static constexpr double kMinSlack = 1000.0;

    /** Cap on the remaining/slack urgency boost (2x the 0..11
     *  static-priority range). */
    static constexpr double kMaxUrgency = 24.0;

    /** Fraction of DRAM bandwidth a block must demand before the
     *  throttle is worth programming — the same 0.5 x DRAM_BW
     *  memory-intensiveness cutoff Algorithm 3 uses. */
    static constexpr double kThrottleWorthyShare = 0.5;

  private:
    sim::SocConfig cfg_;
    ContentionTuning tuning_;
    LatencyModel model_;
    Scoreboard scoreboard_;
    /** Proportional-allocation scratch, reused across boundaries so a
     *  contended boundary allocates nothing once they have grown. */
    std::vector<sim::BwDemand> demands_;
    std::vector<double> grants_;
    std::vector<char> done_;
};

} // namespace moca::runtime

#endif // MOCA_RUNTIME_CONTENTION_MANAGER_H
