/**
 * @file
 * Algorithm 3 of the paper: the MoCA scheduler.  At each scheduling
 * round it scores every task in the TaskQueue as
 *
 *   Score_i = user_given_priority_i + Slowdown_i,
 *   Slowdown_i = WaitingTime_i / EstimatedTime(Task_i),
 *
 * flags tasks whose estimated average DRAM bandwidth demand exceeds
 * half the DRAM bandwidth as memory-intensive, populates an execution
 * queue with tasks above the score threshold (sorted by score), and
 * forms the co-running group by popping the highest-scored task and,
 * whenever that task is memory-intensive, pairing it with the best
 * non-memory-intensive task remaining in the queue.
 */

#ifndef MOCA_SCHED_SCHEDULER_H
#define MOCA_SCHED_SCHEDULER_H

#include <vector>

#include "common/units.h"

namespace moca::sched {

/** A TaskQueue entry as the scheduler sees it. */
struct SchedTask
{
    int id = -1;
    int priority = 0;            ///< user_given_priority, 0..11.
    Cycles dispatched = 0;       ///< Time entered into the TaskQueue.
    double estimatedTime = 1.0;  ///< Isolated latency estimate.
    double estimatedAvgBw = 0.0; ///< Mean DRAM demand, bytes/cycle.
};

/** Memory-intensive flag cutoff as a fraction of DRAM bandwidth
 *  (Algorithm 3 line 7). */
inline constexpr double kMemIntensiveFraction = 0.5;

/** Algorithm 3 lines 7-11: a mean DRAM demand of `avg_bw` bytes/cycle
 *  is memory-intensive on a `dram_bw` bytes/cycle channel. */
inline bool
isMemIntensive(double avg_bw, double dram_bw)
{
    return avg_bw > kMemIntensiveFraction * dram_bw;
}

/** Scheduler tuning knobs. */
struct SchedulerConfig
{
    /** ExQueue admission threshold on the score (Algorithm 3
     *  line 14); 0 admits every dispatched task. */
    double scoreThreshold = 0.0;

    /** Disable the memory-aware pairing (ablation knob); selection
     *  then degenerates to pure score order. */
    bool memAwarePairing = true;
};

/** The MoCA scheduler. */
class MocaScheduler
{
  public:
    MocaScheduler(const SchedulerConfig &cfg, double dram_bw)
        : cfg_(cfg), dram_bw_(dram_bw)
    {
    }

    /** Score of a task at time `now` (Algorithm 3 lines 3-6). */
    static double score(const SchedTask &task, Cycles now);

    /** Memory-intensiveness flag (Algorithm 3 lines 7-11). */
    bool isMemIntensive(const SchedTask &task) const;

    /** Bias applied when filling slots next to already-running jobs:
     *  steer the mix toward a memory/compute balance. */
    enum class MixBias { None, PreferNonMem, PreferMem };

    /**
     * One scheduling round: select up to `max_slots` tasks to run
     * concurrently (Algorithm 3 lines 13-26).
     *
     * The group formation only ever examines the `max_slots` best
     * tasks of each intensiveness class (every pick is either "best
     * remaining", "best remaining memory-intensive", or "best
     * remaining non-memory-intensive", and at most `max_slots` picks
     * happen), so the round runs a bounded top-k selection scan over
     * the queue instead of sorting it — O(queue) with a tiny
     * constant rather than O(queue log queue), and decision-identical
     * to the full ExQueue sort.
     *
     * @param bias when the co-runner set is already skewed (e.g.
     *        mostly memory-intensive jobs running), the first pick
     *        prefers a task that rebalances the mix; Algorithm 3's
     *        pairing then applies within the selected group.
     * @return task ids in launch order.
     */
    std::vector<int> selectGroup(const std::vector<SchedTask> &queue,
                                 Cycles now, int max_slots,
                                 MixBias bias = MixBias::None) const;

    /**
     * selectGroup over an id list with an external task lookup, so a
     * caller holding per-job SchedTask records (e.g. a policy's
     * per-job admit cache) can run a round without materializing a
     * queue vector first.  `task_at(id)` returns the job's entry, or
     * nullptr to skip the id.  Same selection as selectGroup.
     */
    template <class TaskAt>
    std::vector<int> selectGroupIds(const std::vector<int> &ids,
                                    TaskAt &&task_at, Cycles now,
                                    int max_slots,
                                    MixBias bias = MixBias::None) const
    {
        std::vector<int> group;
        if (max_slots <= 0 || ids.empty())
            return group;
        beginRound();
        for (int id : ids)
            if (const SchedTask *t = task_at(id))
                considerTask(*t, now,
                             static_cast<std::size_t>(max_slots));
        formGroup(max_slots, bias, group);
        return group;
    }

    const SchedulerConfig &config() const { return cfg_; }

  private:
    SchedulerConfig cfg_;
    double dram_bw_;

    /** ExQueue entry (selectGroup working state).  Holds the task by
     *  value: a caller's task storage may move while the round's scan
     *  is still inserting candidates (e.g. a policy growing its
     *  per-job cache), so pointers into it would dangle. */
    struct Scored
    {
        SchedTask task;
        double score;
        bool taken = false;
    };
    /** Bounded per-class top-k scratch plus the merged candidate
     *  list, reused across scheduling rounds (each holds at most
     *  max_slots entries, so no O(waiting) storage or allocation per
     *  scheduling point of a long-horizon run). */
    // detlint: allow(R4) per-instance scratch; never cross-thread
    mutable std::vector<Scored> mem_top_;
    mutable std::vector<Scored> cpu_top_;
    mutable std::vector<Scored> ex_;

    /** Strict-total-order for the ExQueue: descending score, id
     *  ascending on ties (ids are unique, so the old stable_sort and
     *  this comparator agree exactly). */
    static bool better(const Scored &a, const Scored &b)
    {
        if (a.score != b.score)
            return a.score > b.score;
        return a.task.id < b.task.id;
    }

    void beginRound() const;

    /** Score `t` and, if it passes the ExQueue threshold, insert it
     *  into its class's bounded top-`cap` list. */
    void considerTask(const SchedTask &t, Cycles now,
                      std::size_t cap) const;

    /** Merge the per-class candidates and run the Algorithm 3 group
     *  formation (lines 17-25) over them. */
    void formGroup(int max_slots, MixBias bias,
                   std::vector<int> &group) const;
};

} // namespace moca::sched

#endif // MOCA_SCHED_SCHEDULER_H
