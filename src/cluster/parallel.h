/**
 * @file
 * Sharded parallel fleet execution: a conservative parallel-discrete-
 * event-simulation (PDES) kernel for the fleet driver (serve/serve.cc).
 *
 * SoCs share nothing between fleet-level events (task arrivals), so
 * the fleet parallelizes without changing any SoC's simulation: the
 * engine partitions the SoCs into per-worker shards, and each *epoch*
 * every worker advances its shard's SoCs up to the shared
 * conservative horizon — the next front-end event (an arrival, a
 * timeout, a control tick), which is exactly the lookahead a
 * conservative PDES needs.  `sim::Soc::advanceTo(horizon)` commits
 * every step that ends by the horizon and parks the one that would
 * cross it, so a horizon never cuts a step: each SoC simulates
 * exactly what its own jobs would alone.  A barrier then returns
 * control to the single-threaded coordinator, which harvests
 * completions and polls load snapshots (both in SoC-index order
 * regardless of which worker produced the state), and injects the
 * placed tasks before releasing the next epoch.
 *
 * Stream replay.  When the front end is a fixed-arrival stream whose
 * placements read no SoC state (cluster::Dispatcher::readsLoad is
 * false: `rr`, `random`), the coordinator needs no barrier per
 * arrival: it places the whole stream first, and one epoch
 * (replay()) lets each worker walk each of its SoCs through the
 * sequence the per-arrival barriers would have produced —
 * `advanceTo(arrival_k)` for every arrival k in order, the inject of
 * the SoC's own task right after its arrival's advance, and finally
 * `advanceTo(kNoHorizon)`.  Every SoC thus sees the same horizons
 * and injections at the same cycles, so the run is bit-identical to
 * the barrier path by construction.  A done() SoC, or one parked past
 * a horizon, is not behind it, so the walk passes it in O(1): the
 * replay costs O(horizons a SoC steps at) plus one check per
 * arrival.
 *
 * Determinism contract (the whole point): a sharded run is
 * bit-identical to the serial run — same `ClusterResult`, same
 * per-task latencies, `jobs=1 == jobs=N` for every N.  It holds
 * because
 *
 *  1. each SoC is advanced by exactly one worker, through exactly the
 *     per-SoC step sequence the serial loop produces (the horizon
 *     sequence a SoC observes is the arrival sequence, independent of
 *     sharding, and of whether the arrivals are barriered or
 *     replayed);
 *  2. every cross-shard aggregate (stepped counts) is reduced on the
 *     coordinator in shard-index order, so no result depends on
 *     worker completion order;
 *  3. per-SoC RNG/seeding is untouched — shard count cannot perturb
 *     any stream; and
 *  4. the barrier's mutex orders every worker write before every
 *     coordinator read (and vice versa), so the dispatcher sees a
 *     quiescent fleet, never a torn one.
 *
 * Epochs are *logical*: a fleet horizon counts as an epoch when some
 * active SoC is behind it (sim::Soc::behind: unfinished, and either
 * its clock is below H with no step parked, or its parked step ends
 * at or before H), and as a *horizon stall* when none is —
 * simultaneous arrivals, a burst arriving into a drained fleet, or a
 * fleet whose busy SoCs are all parked past H.  On the barrier path
 * the coordinator checks that predicate (wouldStep) before releasing
 * the workers and skips a stall's round-trip outright (a provable
 * no-op for every SoC); on the replay path each worker records, per
 * horizon, how many of its SoCs were behind, and the coordinator
 * reduces those counts in shard-index order.  Both paths therefore report the same
 * EpochStats::epochs, horizonStalls and socsStepped; only
 * EpochStats::barriers, the worker releases that actually happened,
 * tells them apart (one per epoch vs one per stream).  Nothing is
 * cached, so a caller that injects work between epochs owes the
 * engine no notice.
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

/** Epoch-granularity observability of one fleet run.  epochs,
 *  socsStepped and horizonStalls count logical epochs (see the file
 *  comment), identical on the barrier and the replay path. */
struct EpochStats
{
    /** Fleet horizons at which some active SoC was behind. */
    std::uint64_t epochs = 0;

    /** Sum over epochs of SoCs that were behind the horizon (and so
     *  ran the kernel); meanSocsStepped() is the per-epoch mean. */
    std::uint64_t socsStepped = 0;

    /**
     * Horizons at which no active SoC was behind
     * (ParallelEngine::wouldStep was false).  High stall counts mean
     * the arrival stream is denser than the fleet's event stream —
     * every SoC is done or parked on a step that ends past the
     * horizon — so the run is dispatcher-bound, not
     * simulation-bound.
     */
    std::uint64_t horizonStalls = 0;

    /** Worker releases that actually ran (an inline run counts when
     *  there is one shard): equal to epochs on the barrier path, one
     *  per replayed stream. */
    std::uint64_t barriers = 0;

    /** Mean SoCs stepped per executed epoch (0 when no epochs ran). */
    double meanSocsStepped() const
    {
        return epochs == 0 ? 0.0
                           : static_cast<double>(socsStepped) /
                static_cast<double>(epochs);
    }
};

/**
 * A fixed-arrival stream whose placements read no SoC state, as
 * ParallelEngine::replay walks it.  The fleet driver implements it
 * over state it already keeps: the stream's arrival cycles and each
 * slot's placement list.  Workers call every method concurrently, so
 * arrival() and placements() must not change during the epoch, and
 * inject(soc, n) may touch SoC `soc` alone.
 */
class StreamReplay
{
  public:
    virtual ~StreamReplay() = default;

    /** Number of arrivals in the stream. */
    virtual std::size_t arrivals() const = 0;

    /** Cycle of arrival `k`; non-decreasing in k. */
    virtual Cycles arrival(std::size_t k) const = 0;

    /** Arrival indices placed on slot `soc`, ascending. */
    virtual const std::vector<int> &placements(std::size_t soc) const = 0;

    /** Inject slot `soc`'s `n`-th placement into its SoC, at the
     *  cycle of its arrival. */
    virtual void inject(std::size_t soc, std::size_t n) = 0;
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
     * One epoch replaying a whole placed stream (see the file
     * comment): each worker walks each of its SoCs through every
     * arrival horizon, injecting the SoC's placements as it passes
     * them, then drains it.  Equivalent, SoC by SoC and in EpochStats,
     * to advanceFleet(arrival(k)) then the inject of arrival k for
     * every k, then advanceFleet(kNoHorizon) — with one worker release
     * instead of one per arrival.  Every slot must be active.  The
     * caller sizes each SoC's job storage beforehand, so workers only
     * allocate what stepping itself allocates.
     *
     * @return the SoCs behind each logical horizon, arrivals first and
     *         the drain last (arrivals() + 1 entries); valid until the
     *         next replay.
     */
    const std::vector<std::uint32_t> &replay(StreamReplay &stream);

    /**
     * True when an epoch at `horizon` would step some SoC: an active
     * SoC is behind the horizon (sim::Soc::behind).  Read straight from
     * the SoCs, so it holds whatever the coordinator injected since
     * the last epoch.  Coordinator-only, between epochs.
     */
    bool wouldStep(Cycles horizon) const;

    /**
     * The least horizon at which an epoch would step some SoC
     * (wouldStep(h) holds exactly for h >= it below sim::kNoHorizon);
     * sim::kNoHorizon when no active SoC is unfinished.
     * Coordinator-only, between epochs.
     */
    Cycles firstStepHorizon() const;

    /**
     * Count `n` horizons below firstStepHorizon() as stalls without
     * visiting them: advanceFleet at each would only count the stall.
     */
    void skipStalls(std::uint64_t n) { stats_.horizonStalls += n; }

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
        /** Replay only: this shard's SoCs behind each horizon. */
        std::vector<std::uint32_t> behindAt;
        /** Wall-clock accumulators (see phaseTotals()). */
        double advanceSec = 0.0;
        double waitSec = 0.0;
    };

    /** Slot `i` is active and behind `horizon`: exactly when
     *  advancing it to `horizon` runs the kernel. */
    bool behind(std::size_t i, Cycles horizon) const;
    void runShard(Shard &shard);
    /** Walk SoC `i` through the replayed stream (see replay()). */
    void replaySoc(std::size_t i, Shard &shard);
    /** Release the workers on the published epoch and wait for them
     *  (inline with one shard). */
    void runEpoch();
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
    /** The stream a replay epoch walks; null on barrier epochs. */
    StreamReplay *stream_ = nullptr;

    EpochStats stats_;
};

} // namespace moca::cluster

#endif // MOCA_CLUSTER_PARALLEL_H
