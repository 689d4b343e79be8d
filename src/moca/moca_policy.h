/**
 * @file
 * The full-stack MoCA execution policy: Algorithm 3 scheduling of
 * co-running jobs, Algorithm 2 contention detection + throttle
 * programming at layer-block boundaries, and infrequent compute-tile
 * repartitioning (the paper triggers compute repartition "much less
 * frequently to avoid its high overhead"; memory repartition costs
 * only the DMA reconfiguration).
 *
 * Ablation knobs expose each design choice (throttling, memory-aware
 * pairing, dynamic priority score, compute repartition) for the
 * component-ablation bench.
 */

#ifndef MOCA_MOCA_POLICY_H
#define MOCA_MOCA_POLICY_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "moca/runtime/contention_manager.h"
#include "moca/sched/scheduler.h"
#include "sim/policy.h"
#include "sim/soc.h"

namespace moca {

/** MoCA policy configuration + ablation knobs. */
struct MocaPolicyConfig
{
    /** Concurrent job slots; tiles per slot = numTiles / slots. */
    int slots = 4;

    /** Program the MoCA throttle engines (core mechanism). */
    bool enableThrottling = true;

    /** Algorithm 3's memory-intensive pairing. */
    bool enableMemAwarePairing = true;

    /** Dynamic priority score (remaining/slack term) in Algorithm 2;
     *  disabled -> static user priority only. */
    bool enableDynamicScore = true;

    /** Allow the rare compute-tile repartitioning. */
    bool enableComputeRepartition = true;

    /** Scheduler score threshold (Algorithm 3 line 14). */
    double scoreThreshold = 0.0;

    /** Use the sparsity-aware performance predictor (the paper's
     *  Limitations-section extension); false models a dense-only
     *  runtime mis-estimating pruned workloads. */
    bool sparsityAwarePredictor = true;

    /** Expand a lone job only when the estimated remaining work on
     *  its current tiles exceeds this many migration penalties
     *  (compute repartition is deliberately rare, Sec. III-C). */
    double repartitionBenefit = 6.0;

    /**
     * Fixed throttle-monitoring window ("tick") in cycles.  0 keeps
     * the paper's prediction-derived windows (window = Prediction /
     * Num_tile); > 0 programs every engine with this window length,
     * trading Algorithm 2's adaptivity for a uniform pacing
     * granularity (sensitivity knob).
     */
    Cycles throttleTickCycles = 0;

    /**
     * Threshold sizing mode: false ("scaled", the paper) sizes each
     * job's per-window budget from its score-weighted bandwidth
     * allocation; true ("fixed") gives every throttled job the equal
     * 1/N share of the channel, ignoring the dynamic scores
     * (ablation of the score-proportional shaving).
     */
    bool fixedThreshold = false;

    /**
     * Uniform spec-string parameter surface (see exp::PolicyRegistry):
     * apply one `key=value` setting.  Understands slots, throttle,
     * pairing, dynamic_score, repartition, score_threshold,
     * sparsity_aware, repartition_benefit, tick, and threshold
     * (scaled|fixed).
     * @return false when `key` is unknown; fatal on malformed values.
     */
    bool applyParam(const std::string &key, const std::string &value);
};

/** MoCA as a pluggable execution policy for the SoC simulator. */
class MocaPolicy : public sim::Policy
{
  public:
    MocaPolicy(const sim::SocConfig &soc_cfg,
               const MocaPolicyConfig &cfg = MocaPolicyConfig());

    const char *name() const override { return "moca"; }

    void schedule(sim::Soc &soc, sim::SchedEvent event) override;
    void onBlockBoundary(sim::Soc &soc, int id) override;
    void onJobComplete(sim::Soc &soc, int id) override;

    /** Diagnostics for benches/tests. */
    struct PolicyStats
    {
        long reconfigurations = 0;   ///< Algorithm 2 invocations.
        long contentionDetected = 0; ///< ... that found overflow > 0.
        long jobsAdmitted = 0;
        long repartitions = 0;       ///< Compute-tile resizes.
    };
    const PolicyStats &policyStats() const { return stats_; }

  private:
    MocaPolicyConfig cfg_;
    /** Also the policy's Algorithm 1 estimator (cm_.model()): one
     *  memoized LatencyModel serves Algorithms 2 and 3. */
    runtime::ContentionManager cm_;
    sched::MocaScheduler scheduler_;
    PolicyStats stats_;

    /** Whole-model Algorithm 1 aggregates for one tile count. */
    struct ModelEstimate
    {
        double time = 0.0; ///< Isolated latency estimate, cycles.
        double bw = 0.0;   ///< Average DRAM bandwidth, bytes/cycle.
    };

    /**
     * Memoized whole-model estimates.  Algorithm 3 re-scores every
     * waiting task at each scheduling point; the per-(model, tiles)
     * estimates it needs are invariant, and without the memo each
     * scheduling point would walk every layer of every queued task —
     * quadratic in trace length on long-horizon stress runs.  Keyed
     * on the model's stable uid (not its address, which an allocator
     * may reuse) packed with the tile count.  Audited for detlint
     * R1: keyed lookups only (find/emplace), never iterated, so the
     * unordered layout cannot influence any scheduling decision.
     */
    std::unordered_map<std::uint64_t, ModelEstimate> estimate_memo_;

    const ModelEstimate &modelEstimate(const dnn::Model &model,
                                       int num_tiles);

    /**
     * Algorithm-3 re-scoring memo across scheduling points.  A job's
     * admit-queue entry (priority, dispatch time, per-slot estimates)
     * is a pure function of its spec and the slot width — both
     * time-independent — so it is computed once per job, cached here
     * indexed by job id, and each scheduling round scans the waiting
     * ids directly against the cache (no O(waiting) queue rebuild
     * when the waiting set changes).  Likewise the mix bias depends
     * only on the running set and its tile allocations, tracked by
     * the running epoch (resizeJob bumps it too).
     */
    std::vector<sched::SchedTask> task_cache_; ///< id == -1: unfilled.
    int task_cache_per_slot_ = -1;
    sched::MocaScheduler::MixBias bias_memo_ =
        sched::MocaScheduler::MixBias::None;
    std::uint64_t bias_epoch_ = ~0ull;

    /** The job's cached admit-queue entry (filled on first sight). */
    const sched::SchedTask &cachedTask(const sim::Soc &soc, int id,
                                       int per_slot);

    /**
     * Waiting jobs bucketed by (model, priority).  All members of a
     * bucket share the same per-slot estimate, so their Algorithm 3
     * score order is their arrival order (earlier dispatch -> longer
     * wait -> higher score; dispatch ties fall to ascending id, the
     * arrival order's own tie-break) for every `now`.  A scheduling
     * round therefore only needs the first `max_slots` still-waiting
     * entries of each bucket as candidates — O(buckets x slots) per
     * round instead of a scan of the whole (possibly huge) backlog.
     * Buckets are filled from a cursor over Soc::arrivalOrder() and
     * popped lazily at the head; entries admitted out of band (the
     * idle-machine fallback) become holes that the head skips over.
     */
    struct AdmitBucket
    {
        std::vector<int> fifo; ///< Ids in arrival order.
        std::size_t head = 0;  ///< First possibly-waiting entry.
    };
    std::vector<AdmitBucket> buckets_;
    std::unordered_map<std::uint64_t, int> bucket_index_;
    std::size_t arrival_cursor_ = 0;
    std::vector<int> admit_scratch_; ///< Candidate ids per round.
    /** Identity of the Soc the incremental state above tracks; a
     *  different Soc (or a restarted run) resets it. */
    const sim::Soc *bound_soc_ = nullptr;

    /** Pull newly arrived jobs into their admit buckets. */
    void ingestArrivals(const sim::Soc &soc);

    int tilesPerSlot(const sim::Soc &soc) const;

    /**
     * Run Algorithm 2 for a job and program its throttle engines.
     * @return true when contention (overflow) was detected.
     */
    bool reconfigure(sim::Soc &soc, int id);

    /** Refresh every co-runner's allocation (on contention). */
    void reconfigureCorunners(sim::Soc &soc, int except_id);

    /** Start jobs selected by Algorithm 3 while slots are free. */
    void admitJobs(sim::Soc &soc);

    /** The rare compute repartition (expand a lone long job / shrink
     *  an expanded job when new work arrives). */
    void maybeRepartition(sim::Soc &soc, sim::SchedEvent event);

    /**
     * True unless a PeriodicTick in the Soc's current state provably
     * changes nothing: no admission, no fallback start, no lone-job
     * expansion.  schedule() declares the ticks quiet
     * (Soc::quietTicks) when it is false.
     */
    bool tickCanAct(const sim::Soc &soc) const;
};

} // namespace moca

#endif // MOCA_MOCA_POLICY_H
