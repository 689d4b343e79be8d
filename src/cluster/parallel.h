/**
 * @file
 * Sharded parallel fleet execution: a conservative parallel-discrete-
 * event-simulation (PDES) kernel for the fleet driver (serve/serve.cc).
 *
 * SoCs share nothing between fleet-level events (task arrivals), so
 * the fleet parallelizes with *zero fidelity loss*: the engine
 * partitions the SoCs into per-worker shards, and each *epoch* every
 * worker advances its shard's SoCs up to the shared conservative
 * horizon — the next front-end event (an arrival, a timeout, a
 * control tick), which is exactly the lookahead a conservative PDES
 * needs, and exactly the clamp `sim::Soc::advanceTo(horizon)`
 * provides.  A barrier then returns
 * control to the single-threaded coordinator, which harvests
 * completions and polls load snapshots (both in SoC-index order
 * regardless of which worker produced the state), and injects the
 * placed tasks before releasing the next epoch.
 *
 * Determinism contract (the whole point): a sharded run is
 * bit-identical to the serial run — same `ClusterResult`, same
 * per-task latencies, `jobs=1 == jobs=N` for every N.  It holds
 * because
 *
 *  1. each SoC is advanced by exactly one worker, through exactly the
 *     per-SoC step sequence the serial loop produces (the horizon
 *     sequence a SoC observes is the arrival sequence, independent of
 *     sharding);
 *  2. every cross-shard aggregate (stepped counts) is reduced on the
 *     coordinator in shard-index order, so no result depends on
 *     worker completion order;
 *  3. per-SoC RNG/seeding is untouched — shard count cannot perturb
 *     any stream; and
 *  4. the barrier's mutex orders every worker write before every
 *     coordinator read (and vice versa), so the dispatcher sees a
 *     quiescent fleet, never a torn one.
 *
 * No-op epochs are decided from the SoCs themselves: an epoch at
 * horizon H runs a kernel iteration on some SoC exactly when an
 * active SoC is unfinished and behind H (`now() < H`).  Before
 * releasing the workers the coordinator checks that predicate
 * (wouldStep), stopping at the first SoC that is behind; when none
 * is — simultaneous arrivals, or a burst arriving into a drained
 * fleet — the epoch is skipped as a *horizon stall*.  Such an epoch
 * is provably a no-op for every SoC, so skipping it is bit-identical
 * and saves the barrier round-trip.  Nothing is cached, so a caller
 * that injects work between epochs owes the engine no notice.
 * EpochStats exposes epochs / stepped-SoC counts / stall counts so
 * lookahead quality is observable in ClusterResult.
 *
 * The TSan CI lane runs the engine at jobs=4 to check the barrier
 * discipline; the determinism contract holds for every jobs value.
 */

#ifndef MOCA_CLUSTER_PARALLEL_H
#define MOCA_CLUSTER_PARALLEL_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/units.h"
#include "sim/soc.h"

namespace moca::cluster {

/** Epoch-granularity observability of one fleet run. */
struct EpochStats
{
    /** Barrier epochs executed (workers released + joined). */
    std::uint64_t epochs = 0;

    /** Sum over executed epochs of SoCs that stepped at least once;
     *  meanSocsStepped() is the per-epoch mean. */
    std::uint64_t socsStepped = 0;

    /**
     * Epochs skipped because no active SoC was unfinished and behind
     * the horizon (ParallelEngine::wouldStep was false).  High stall
     * counts mean the arrival stream is denser than the fleet's event
     * stream — the lookahead window is empty and the run is
     * dispatcher-bound, not simulation-bound.
     */
    std::uint64_t horizonStalls = 0;

    /** Mean SoCs stepped per executed epoch (0 when no epochs ran). */
    double meanSocsStepped() const
    {
        return epochs == 0 ? 0.0
                           : static_cast<double>(socsStepped) /
                static_cast<double>(epochs);
    }
};

/**
 * The conservative-PDES cluster kernel: a persistent worker pool over
 * contiguous SoC shards with an epoch barrier.
 *
 * With one shard (jobs=1, or a 1-SoC fleet) no threads are spawned
 * and epochs run inline on the caller — the parallel and serial paths
 * are the same code, which is what makes the jobs=1 == jobs=N
 * contract trivially auditable.
 */
class ParallelEngine
{
  public:
    /**
     * @param socs the fleet, index-stable for the engine's lifetime
     *        (not owned; must outlive the engine).
     * @param jobs worker count; shard count is min(jobs, socs.size())
     *        with contiguous index blocks.  Fatal when jobs < 1.
     */
    ParallelEngine(std::vector<sim::Soc *> socs, int jobs);
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /**
     * One conservative epoch: advance every active SoC to `horizon`
     * (sim::kNoHorizon drains the fleet to completion) and
     * synchronize.  Returns after the barrier, so the caller observes
     * every shard's writes; skipped entirely (a horizon stall) when
     * !wouldStep(horizon).
     */
    void advanceFleet(Cycles horizon);

    /**
     * True when an epoch at `horizon` would step some SoC: an active
     * SoC is unfinished and behind the horizon.  Read straight from
     * the SoCs, so it holds whatever the coordinator injected since
     * the last epoch.  Coordinator-only, between epochs.
     */
    bool wouldStep(Cycles horizon) const;

    /**
     * Include/exclude SoC `soc_idx` from epochs (serve-layer failure
     * injection).  An inactive SoC is never advanced — its clock
     * freezes wherever the last epoch left it — and never makes an
     * epoch run.  Coordinator-only, between epochs (i.e. at a
     * quiescent barrier point), so the change is ordered against
     * every worker exactly like an injection.
     */
    void setActive(std::size_t soc_idx, bool active);

    /**
     * Swap the occupant of slot `soc_idx` (e.g. a recovered SoC
     * replacing a failed one's frozen simulator).  The engine never
     * touches the old occupant again, so the caller may free it; the
     * new SoC must live as long as it occupies the slot.  Shard
     * layout is untouched — slots, not SoC objects, are sharded.
     * Coordinator-only, between epochs.
     */
    void replaceSoc(std::size_t soc_idx, sim::Soc *soc);

    const EpochStats &stats() const { return stats_; }

    /**
     * Wall-clock phase totals summed over shards in index order:
     * time workers spent advancing their shard's SoCs vs parked at
     * the epoch barrier waiting for work.  Coordinator-only, between
     * epochs — the barrier orders the workers' accumulator writes
     * before this read.
     */
    void phaseTotals(double &advance_sec, double &wait_sec) const;

  private:
    /** One worker's contiguous SoC range plus its reduction slots
     *  (written only by the owning worker during an epoch, read only
     *  by the coordinator after the barrier). */
    struct Shard
    {
        std::size_t begin = 0;
        std::size_t end = 0;
        std::uint64_t stepped = 0;
        /** Wall-clock accumulators (see phaseTotals()). */
        double advanceSec = 0.0;
        double waitSec = 0.0;
    };

    /** Slot `i` is active, unfinished and behind `horizon`: exactly
     *  when advancing it to `horizon` runs a kernel iteration. */
    bool behind(std::size_t i, Cycles horizon) const;
    void runShard(Shard &shard);
    void workerLoop(std::size_t shard_idx);

    std::vector<sim::Soc *> socs_;
    /** Per-slot activation mask (see setActive); char, not bool, so
     *  workers read plain bytes their own shard never writes. */
    std::vector<char> active_;
    std::vector<Shard> shards_;
    std::vector<std::thread> workers_;

    // Epoch hand-off: the coordinator publishes horizon_ and bumps
    // generation_ under mu_; workers run their shard, then count into
    // done_count_.  The mutex pairs every coordinator write with the
    // workers' reads (and the workers' shard writes with the
    // coordinator's post-barrier reads).
    std::mutex mu_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    std::uint64_t generation_ = 0;
    std::size_t done_count_ = 0;
    bool shutdown_ = false;
    Cycles horizon_ = 0;

    EpochStats stats_;
};

} // namespace moca::cluster

#endif // MOCA_CLUSTER_PARALLEL_H
