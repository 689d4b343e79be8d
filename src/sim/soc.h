/**
 * @file
 * Cycle-level SoC simulator.  One step function (Soc::step) drives
 * every run; the time-advance kernel (SocConfig::kernel) only picks
 * how far a step may reach.
 *
 * Execution model: each step, every running
 * job computes the byte demand its DMA engines would issue over the
 * step, capped by its MoCA throttle allowance; the pluggable
 * mem::MemoryModel (cfg.memModel: the flat channel+thrash model, or
 * the bank-aware `banked` model) arbitrates the shared DRAM channel
 * and L2 demands; each
 * job then advances its current layer using the granted rates,
 * combining compute and memory progress with the overlap factor
 * (latency = max(C, M) + f * min(C, M), Algorithm 1 semantics).
 *
 * Every step ends at or before the next arrival and, unless the
 * policy declared ticks quiet (quietTicks), the next periodic
 * scheduler tick, so both kernels fire the tick at the exact
 * schedPeriod cadence and admit arrivals at their exact dispatch
 * cycle.  The *quantum* kernel further caps a step at one
 * cfg.quantum, so cost scales with simulated cycles.  The *event*
 * kernel caps it at the earliest in-SoC state change
 * (nextStateChange: memory-model change, stall expiry, the start of
 * a layer's tail quantum, binding throttle-window rollover) rounded
 * up to the quantum grid; demands, grants, and per-layer rates are
 * piecewise-constant between those events, so cost scales with
 * scheduling activity instead.  Over a stateless memory model the
 * layer-tail bound uses the job's *contended* progress rate from the
 * plan's arbitration, so a job served at half bandwidth takes one
 * step to its tail, not a geometric run of steps that change no
 * state.  An event step may cross quiet ticks; it still ends on the
 * grid the quantum kernel steps on, which restarts at every tick.
 * A co-simulator's horizon never shapes a step (see advanceTo).
 *
 * Idle gaps cost O(1) kernel iterations under both kernels: a SoC
 * with no running and no waiting job jumps straight to its next
 * arrival (stopping at the caller's horizon on the way), skipping the
 * periodic ticks in between in closed form.  No policy acts on such a
 * tick (see Policy), and the next tick still lands on the same
 * schedPeriod grid, so results are identical to firing every tick.
 *
 * Layer DRAM traffic is determined at layer start from the job's
 * *effective* L2 share (capacity divided among co-runners), which
 * models shared-cache capacity contention.  Scheduling points invoke
 * the pluggable Policy (MoCA or a baseline).
 */

#ifndef MOCA_SIM_SOC_H
#define MOCA_SIM_SOC_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "mem/memory_model.h"
#include "obs/sampler.h"
#include "sim/config.h"
#include "sim/job.h"
#include "sim/policy.h"
#include "sim/trace.h"

namespace moca::sim {

/**
 * The only horizon value meaning "no bound": advanceTo(kNoHorizon)
 * drains to completion through the very same code the bounded mode
 * uses (every planned step ends before 2^64-1).
 */
inline constexpr Cycles kNoHorizon = ~Cycles{0};

/** nextStateChange() when no state change is pending. */
inline constexpr Cycles kNoEvent = ~Cycles{0};

/** Aggregate SoC-level statistics for a run. */
struct SocStats
{
    Cycles cyclesSimulated = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t l2Bytes = 0;
    double dramBusyFraction = 0.0; ///< Time-averaged DRAM utilization.
    /** Demand/arbitrate/advance rounds executed: fixed quanta under
     *  the quantum kernel, variable-length steps under the event
     *  kernel (the kernel-speedup ratio is quanta_q / quanta_e). */
    std::uint64_t quanta = 0;
    /** Passes of advanceTo's stepping loop: committed steps, idle
     *  jumps, and the pass that parks a step.  An idle gap adds O(1)
     *  however many scheduler periods it spans. */
    std::uint64_t advancePasses = 0;
    /** Policy::schedule() calls actually made.  Periodic ticks skipped
     *  on an empty SoC (see Policy) invoke nothing and are not
     *  counted, so an idle gap adds nothing here. */
    std::uint64_t schedInvocations = 0;
    /** Steps where oversubscribed interleaved demand degraded the
     *  effective DRAM bandwidth. */
    std::uint64_t thrashQuanta = 0;
    /** Bandwidth-cycles lost to thrash (bytes not servable). */
    double thrashLostBytes = 0.0;
    /** Per-level traffic counters of the run's memory model (row
     *  hits/misses, per-bank bytes, L2 conflict loss); all zero under
     *  the bank-less `flat` model. */
    mem::MemTraffic memTraffic;
};

/** The simulated SoC. */
class Soc
{
  public:
    Soc(const SocConfig &cfg, Policy &policy);

    /** Queue a job for dispatch at spec.dispatch. */
    void addJob(const JobSpec &spec);

    /** Run until every job has completed; fatal once simulated time
     *  exceeds cfg.maxCycles (deadlock in a policy). */
    void run();

    // --- Resumable stepping (cluster co-simulation) -------------------
    //
    // run() is beginRun(); advanceTo(kNoHorizon); finishRun().  A
    // co-simulator (the fleet driver) instead advances each SoC up to
    // a *horizon* — the next cluster-level event, e.g. the arrival of
    // a task the front-end dispatcher has not placed yet — injects
    // the task into the chosen SoC at its exact dispatch cycle, and
    // advances again.  The horizon never shapes a step.  Each step is
    // *planned* from the SoC's own state alone (scheduling points,
    // demand probe, end = min(next tick, next arrival, kernel bound))
    // and *committed* only when it ends at or before the horizon;
    // otherwise the SoC *parks* — now() stays at its last step
    // boundary and the plan is kept — until a later horizon reaches
    // the plan's end.  An injection only pulls the parked end in to
    // its dispatch cycle, exactly as the same arrival known from the
    // start would have bounded the step.  So a fleet SoC runs the step
    // sequence its jobs would run alone.  Only idle time (nothing
    // running) stops at the horizon: an idle jump changes no state,
    // so splitting it changes no result.

    /** Prepare for stepping: sort arrivals, arm the scheduler tick. */
    void beginRun();

    /**
     * Step while behind(horizon): commit every step that ends at or
     * before `horizon`, stop idle time at it, and park on the first
     * step that would end past it.  On return now() <= horizon, and
     * the SoC is done(), at the horizon, or parked.  kNoHorizon drains
     * to completion; a horizon of 0 is a no-op (now() starts at 0),
     * matching "advance to an arrival at cycle 0".  Fatal once
     * simulated time exceeds cfg.maxCycles (deadlock in a policy).
     */
    void advanceTo(Cycles horizon);

    /**
     * True when advanceTo(horizon) would run the kernel: the SoC is
     * unfinished and behind the horizon, where a parked SoC is behind
     * only a horizon at or past its planned step end.
     */
    bool behind(Cycles horizon) const
    {
        return !allDone() &&
            (planned_ ? plan_end_ <= horizon : now_ < horizon);
    }

    /** The least horizon the SoC is behind (behind(h) holds exactly
     *  for h >= it below kNoHorizon); kNoHorizon once done(). */
    Cycles behindFrom() const
    {
        if (allDone())
            return kNoHorizon;
        return planned_ ? plan_end_ : now_ + 1;
    }

    /**
     * Append a job mid-run (between advanceTo calls).  Dispatch cycles
     * must be injected in nondecreasing order and must not precede
     * now() (nor reach back to it on a parked SoC, whose scheduling
     * points at now() already ran); the id must be dense like
     * addJob's.  A parked step is cut to end at the dispatch cycle at
     * the latest.
     */
    void injectJob(const JobSpec &spec);

    /**
     * Size the job-count buffers for `n` jobs in all, so injections up
     * to that count allocate nothing.  A co-simulator that knows a
     * SoC's whole placement list calls it before a worker thread steps
     * and injects, keeping those allocations on the calling thread.
     */
    void reserveJobs(std::size_t n);

    /** True once every added/injected job has completed. */
    bool done() const { return allDone(); }

    /** Finalize stats() after stepping (run() calls it itself). */
    void finishRun();

    Cycles now() const { return now_; }
    const SocConfig &config() const { return cfg_; }
    const SocStats &stats() const { return stats_; }

    // --- Policy-facing state inspection ------------------------------

    /** All cold job records, indexed by id (ids are dense, assigned
     *  by addJob).  Per-step execution state lives in the hot array;
     *  read it through jobState/jobTiles/jobLayer/jobStallUntil. */
    const std::vector<Job> &jobs() const { return jobs_; }
    /** Cold record (spec, throttle engine, statistics) of one job. */
    Job &job(int id);
    const Job &job(int id) const;

    /** Lifecycle state of job `id` (hot array). */
    JobState jobState(int id) const { return hot(id).state; }
    /** Tiles currently allocated to job `id` (hot array). */
    int jobTiles(int id) const { return hot(id).numTiles; }
    /** Next layer index of job `id` (hot array). */
    std::size_t jobLayer(int id) const { return hot(id).layerIdx; }
    /** Migration/preemption stall deadline of job `id` (hot array). */
    Cycles jobStallUntil(int id) const { return hot(id).stallUntil; }
    /**
     * Byte demand job `id` would issue over a step of `step` cycles
     * from now(), as the step's demand pass computes it (throttle
     * allowance included); zero unless the job is running, past its
     * stall, with its layer begun.
     */
    mem::MemRequest stepDemand(int id, Cycles step) const;

    /**
     * Ids of jobs waiting (or paused) and visible at `now`, sorted
     * ascending.  The reference aliases live Soc state: it is
     * invalidated by startJob/pauseJob — policies that start jobs
     * while iterating must copy first.
     */
    const std::vector<int> &waitingJobs() const
    {
        // The set is mutated with O(1) append/swap-remove (keeping a
        // sorted vector costs O(waiting) per arrival — quadratic on
        // backlogged long-horizon runs) and only sorted back to the
        // canonical ascending-id order when a reader actually looks.
        sortWaitingView();
        return waiting_ids_;
    }
    /**
     * All job ids in dispatch order (sorted at beginRun; append-only
     * afterwards — injectJob enforces nondecreasing dispatch).  The
     * prefix [0, arrivedCount()) is exactly the set of jobs that have
     * entered the waiting set, in the order they arrived (dispatch
     * ascending, ids ascending on ties).  Policies can consume this
     * with a cursor to track arrivals incrementally instead of
     * re-scanning the waiting set.
     */
    const std::vector<int> &arrivalOrder() const
    {
        return arrival_order_;
    }
    /** Number of jobs that have arrived (see arrivalOrder()). */
    std::size_t arrivedCount() const { return next_arrival_; }
    /** Ids of running jobs, sorted ascending (aliases live state like
     *  waitingJobs()). */
    const std::vector<int> &runningJobs() const { return running_ids_; }
    /** Waiting/paused job count (no copy; dispatcher feedback). */
    std::size_t waitingCount() const { return waiting_ids_.size(); }
    /** Running job count (no copy; dispatcher feedback). */
    std::size_t runningCount() const { return running_ids_.size(); }
    /**
     * Change epoch of the running set: bumped whenever membership
     * changes and when a running job's tile allocation changes
     * (resizeJob).  Policies can memoize derived per-running-set
     * state across scheduling points whose epoch is unchanged
     * (MoCA's running-set mix bias).
     */
    std::uint64_t runningEpoch() const { return running_epoch_; }
    /** Tiles not allocated to any running job. */
    int freeTiles() const;

    // --- Policy-facing control ----------------------------------------

    /**
     * Move a Waiting/Paused job onto `num_tiles` tiles.
     * @param resume_penalty stall charged before execution begins
     *        (e.g. PREMA scratchpad restore); 0 for a fresh start.
     */
    void startJob(int id, int num_tiles, Cycles resume_penalty = 0);

    /**
     * Change a running job's tile allocation.  Charges the
     * thread-migration penalty (cfg.migrationCycles) unless
     * `charge_migration` is false.
     */
    void resizeJob(int id, int num_tiles, bool charge_migration = true);

    /**
     * Preempt a running job at its current layer boundary, saving
     * progress (PREMA).  Frees the job's tiles.
     */
    void pauseJob(int id);

    /** Program the job's MoCA throttle engines (Algorithm 2 output). */
    void configureThrottle(int id, const hw::ThrottleConfig &cfg);

    /**
     * Declare that a PeriodicTick in the current scheduling state
     * cannot act: the policy would start, resize, pause or throttle
     * nothing.  Call it at the end of Policy::schedule(), and only
     * when nothing but a control call, an arrival or a completion can
     * make a tick act.  The event kernel then delivers no tick and
     * lets a step cross them, on the quantum kernel's grid; the
     * quantum kernel ignores it.  startJob, resizeJob, pauseJob, a
     * completion and every schedule() call clear it.  Debug builds
     * panic when a tick delivered while ticks are quiet changes
     * anything.
     */
    void quietTicks() { quiet_ticks_ = true; }
    /** True while the policy's quietTicks() declaration holds. */
    bool ticksQuiet() const { return quiet_ticks_; }

    /** Results of completed jobs (valid after run()). */
    const std::vector<JobResult> &results() const { return results_; }

    /**
     * Effective L2 capacity a job sees right now: total capacity
     * divided by the number of running jobs (capacity contention).
     */
    std::uint64_t effectiveCacheBytes() const;

    /** Event log; call trace().enable() before run() to record. */
    TraceRecorder &trace() { return trace_; }
    const TraceRecorder &trace() const { return trace_; }

    /**
     * Sampled telemetry of this run (null unless cfg.sampleEvery > 0).
     * Purely observational: instruments mirror state the simulator
     * already computes, so enabling sampling never changes results.
     */
    const obs::Sampler *sampler() const { return tele_sampler_.get(); }

    /**
     * Emit the sampled rows of every grid point up to `t` from the
     * state at now().  For a SoC that stays idle from now() to `t` the
     * rows are exact; a parked SoC (a fleet SoC that fails mid-step)
     * has not yet counted its step's traffic.  Stepping emits rows
     * only up to now().  No-op without sampling.
     */
    void sampleIdleUntil(Cycles t);

  private:
    SocConfig cfg_;
    Policy &policy_;
    std::unique_ptr<mem::MemoryModel> mem_;
    Cycles now_ = 0;

    /**
     * Hot/cold job-state split: hot_ holds the per-step execution
     * state (state, tiles, layer/block cursor, layer exec remnants,
     * stall deadline) in a dense array the demand/advance scans walk;
     * jobs_ holds everything else (spec, throttle engine, lifetime
     * statistics), touched only at lifecycle events, reconfigurations
     * and window accounting.  hot_[i] and jobs_[i] describe job i.
     */
    std::vector<JobHot> hot_;
    std::vector<Job> jobs_;
    std::vector<int> arrival_order_; ///< Job ids sorted by dispatch.
    std::size_t next_arrival_ = 0;   ///< Index into arrival_order_.

    std::vector<JobResult> results_;
    SocStats stats_;
    TraceRecorder trace_;
    /**
     * Ids of jobs in JobState::Running, kept sorted ascending (the
     * order the old jobs_ scan produced) and maintained by
     * startJob/pauseJob/completeJob.  With multi-thousand-task stress
     * traces, per-step jobs_ scans would make every step O(total
     * jobs); these counters keep the hot queries O(running jobs).
     */
    std::vector<int> running_ids_;
    /** Ids of Waiting/Paused jobs; maintained unsorted with O(1)
     *  append/swap-remove by admitArrivals/startJob/pauseJob, sorted
     *  back to ascending-id order on read (waitingJobs()).  `mutable`
     *  because the sort is a view-only canonicalization. */
    // detlint: allow(R4) per-Soc view cache; a Soc runs on one thread
    mutable std::vector<int> waiting_ids_;
    /** waiting_ids_ position by job id (-1: not waiting); rebuilt by
     *  the view sort. */
    // detlint: allow(R4) per-Soc view cache; a Soc runs on one thread
    mutable std::vector<int> waiting_pos_;
    mutable bool waiting_view_sorted_ = true;
    int used_tiles_ = 0;       ///< Tiles of all running jobs.
    std::size_t done_jobs_ = 0;
    double dram_busy_cycles_ = 0.0;
    Cycles next_sched_tick_ = 0;
    /**
     * The policy declared ticks quiet (quietTicks).  On the event
     * kernel a quiet tick is not delivered and does not end a step;
     * every tick a step crosses is still traced at its cycle, and
     * next_sched_tick_ stays on its grid (skipTicks).
     */
    bool quiet_ticks_ = false;
    bool sorted_ = false;
    bool began_ = false;       ///< beginRun() has armed the stepping.
    std::uint64_t running_epoch_ = 0; ///< See runningEpoch().

    /** Validate a job's id and model, then append its records. */
    void appendJob(const JobSpec &spec);
    void sortArrivals();
    bool allDone() const { return done_jobs_ == jobs_.size(); }
    Cycles nextArrivalCycle() const;

    /** Insert/remove an id in a sorted id vector. */
    static void insertSorted(std::vector<int> &ids, int id);
    static void eraseSorted(std::vector<int> &ids, int id);

    /** O(1) waiting-set mutation (see waiting_ids_). */
    void waitingAdd(int id);
    void waitingRemove(int id);
    /** Restore the canonical ascending-id order of waiting_ids_. */
    void sortWaitingView() const;

    /** Track a job entering/leaving the running set. */
    void addRunning(int id, int tiles);
    void dropRunning(int id, int tiles);

    /** Debug-only: verify the counters against a full jobs_ scan. */
    void debugCheckCounters() const;

    /** Admit arrivals with dispatch <= now; returns true if any. */
    bool admitArrivals();

    /** Hot execution state of one job (bounds-checked like job()). */
    JobHot &hotRef(int id);
    const JobHot &hot(int id) const;

    /** Initialize exec state for job `id`'s current layer. */
    void beginLayer(int id);

    // --- Step phases --------------------------------------------------

    /**
     * One running job's layer terms from the quantum probe, parallel
     * to its request in probe_requests_.  They hold until the job's
     * next state change, so the step pass and the advance reuse them.
     */
    struct DemandTerms
    {
        double tFull = 0.0;    ///< Full-service remaining layer time.
        double mCap = 0.0;     ///< Memory time at the private DMA caps.
        double l2Rate = 0.0;   ///< L2 bytes per cycle over tFull.
        double dramRate = 0.0; ///< DRAM bytes per cycle over tFull.
        bool stalled = false;
        /** The job's throttle engine is enabled: with quiet ticks it
         *  alone keeps the one-period step cap (layerEnd). */
        bool throttled = false;
        /** The MoCA throttle allowance clamped the latest demand pass
         *  (the probe's flag feeds nextStateChange: the engine's next
         *  window rollover is then a scheduling event). */
        bool throttleBound = false;
    };

    /** A job-level event produced by a step's advance phase. */
    struct BoundaryEvent
    {
        int id;
        bool blockBoundary;
        bool complete;
    };

    /**
     * Handle the scheduling points at `now_`: admit due arrivals,
     * fire the periodic tick (the event kernel skips a quiet one), and
     * — when nothing is running — advance idle time to the next tick
     * (jobs waiting) or straight to the next arrival (nothing waiting
     * either: skipTicks), clamped to `horizon`, or invoke the policy
     * one last time before declaring deadlock.  Returns true when jobs are running (the
     * caller may plan a step); false re-enters the caller's loop.
     */
    bool schedulingPoints(Cycles horizon);

    /**
     * Advance next_sched_tick_ past every tick strictly before
     * `limit` without invoking the policy: the idle branch of
     * schedulingPoints on a SoC with no running and no waiting job,
     * and the quiet ticks an event step crossed.  O(1) unless
     * tracing, which still logs each skipped tick at its cycle.
     */
    void skipTicks(Cycles limit);

    /** Deliver the PeriodicTick due at now_ (Debug: panic when a tick
     *  delivered while ticks are quiet changes anything). */
    void deliverTick();

    /** Move the clock forward to `to` over a stretch with nothing
     *  running, sampling the grid points before `to` with that idle
     *  state. */
    void jumpIdle(Cycles to);

    /** Layer terms of one non-stalled job with valid exec state. */
    DemandTerms demandTerms(const JobHot &j) const;

    /**
     * Byte demand of job `r.id` over `horizon` cycles from its terms,
     * capped by its private rate and throttle allowance, written into
     * r.l2Bytes/r.dramBytes.  Returns true when the throttle bound.
     */
    bool demandAt(const DemandTerms &t, Cycles horizon,
                  mem::MemRequest &r) const;

    /** One running job's probe request and terms over one quantum
     *  (its layer state must be valid unless it is stalled). */
    void probeJob(int id, mem::MemRequest &r, DemandTerms &t) const;

    /**
     * Demand phase, quantum probe: every running job's terms and
     * request over one quantum into terms_/probe_requests_.
     * Initializes layer exec state as needed; no time accounting.
     */
    void probeDemands();

    /** Which throttles bound a step pass (see rescaleDemands). */
    struct StepBinds
    {
        bool probe = false;  ///< A throttle bound the quantum probe.
        /** A throttle binds at the step length that did not bind the
         *  probe: its window budget runs out inside the step. */
        bool runOut = false;
    };

    /** Demand phase, step pass: the probe's requests at `step` cycles
     *  into step_requests_, from the stored terms. */
    StepBinds rescaleDemands(Cycles step);

    /**
     * Arbitration phase: grant the shared DRAM channel (with the
     * oversubscription-thrash derate, reported in `step`) and L2
     * banks over `horizon`.  Returns the memory model's grant buffer,
     * one grant per request, valid until the next call.
     */
    const std::vector<mem::MemGrant> &
    arbitrate(const std::vector<mem::MemRequest> &requests,
              Cycles horizon, mem::MemStepStats &step);

    /** Fold one step's thrash derate into stats_, its lost bytes
     *  times `scale`. */
    void accountThrash(const mem::MemStepStats &step, double scale);

    /**
     * Grants of a step longer than a quantum from the plan's
     * one-quantum grants: each job keeps step/quantum times its
     * quantum grant, capped at its step request (the throttle
     * run-out rule; see plan_grants_).  Written into step_grants_.
     */
    const std::vector<mem::MemGrant> &scalePlanGrants(Cycles step);

    /** Grant/demand service ratio in (0, 1] for one request. */
    double serviceRatio(const mem::MemRequest &r,
                        const mem::MemGrant &g) const;

    /**
     * Advance phase: move every request's job forward by `horizon`
     * cycles (stalled jobs accrue stall time), consuming granted
     * bytes.
     * Records boundary/completion events in boundary_scratch_; does
     * not advance now_.  Returns the step's consumed DRAM bytes.
     */
    double advanceEntries(const std::vector<mem::MemRequest> &requests,
                          const std::vector<mem::MemGrant> &grants,
                          Cycles horizon);

    /** Close a step: advance now_, update stats. */
    void accountStep(Cycles step, double dram_used);

    /** Fire the block-boundary/completion hooks recorded in
     *  boundary_scratch_ by the step's advance phase. */
    void dispatchBoundaries();

    // --- The step -----------------------------------------------------

    /**
     * The stored step plan: the step from now_ to plan_end_ over
     * probe_requests_/terms_, valid while planned_.  Every
     * policy-facing control call drops it (the scheduling state it was
     * planned from moved); injectJob only cuts plan_end_.
     */
    bool planned_ = false;
    Cycles plan_end_ = 0;

    /**
     * The plan's arbitration of probe_requests_ over one quantum,
     * made by the event kernel over a stateless memory model
     * (cyclesUntilNextChange() == 0) and valid while plan_arbitrated_.
     * It bounds the step at each layer's contended tail (layerEnd),
     * a one-quantum step reuses it, and a longer step scales it
     * (scalePlanGrants), so a committed step costs one arbitration.
     *
     * Throttle run-out rule: when a MoCA window budget that did not
     * bind the probe runs out inside a longer step, every job still
     * keeps its scaled quantum grant, capped at its step request.
     * Arbitrating the whole step instead would hand the throttled
     * job's unused bandwidth to its co-runners from the step's first
     * cycle, before the budget ran out; that smear favoured MoCA.
     * A step whose probe a throttle already bound is arbitrated at
     * its own length, as is every step of the quantum kernel and of
     * a stateful model.
     */
    bool plan_arbitrated_ = false;
    std::vector<mem::MemGrant> plan_grants_;
    mem::MemStepStats plan_mem_stats_;

    /**
     * Plan the step at now_: scheduling points, then, with jobs
     * running, the quantum-granular demand probe and stepEnd().
     * Returns false when the scheduling points moved idle time
     * instead (never past `horizon`) and nothing was planned.
     */
    bool planStep(Cycles horizon);

    /**
     * End of the step planned at now_: min(next tick, next arrival),
     * capped at one quantum (quantum kernel) or at nextStateChange()
     * (event kernel, which drops the tick term while ticks are quiet
     * and a state change is pending).  No horizon term.
     */
    Cycles stepEnd() const;

    /** Run the stored plan: demand/arbitrate/advance to plan_end_,
     *  then the boundary hooks. */
    void commitStep();

    /**
     * Event-kernel step bound: the earliest in-SoC state change after
     * now_ — memory-model change, stall expiry, layer-tail floor,
     * binding-throttle rollover — read from the probe's terms_.
     * Every candidate is at or after firstGridPoint(); kNoEvent when
     * there is none.
     */
    Cycles nextStateChange() const;

    /**
     * Layer-tail floor of running job terms_[i], a grid point: the
     * last one strictly before its full-service remaining time, or,
     * when the plan arbitrated, the first one at which that time has
     * shrunk to one quantum at the job's contended rate, if that is
     * later.  Both are capped one scheduler period from now_ unless
     * ticks are quiet and the job is not throttled; such a job that
     * makes no progress ends its step at the next tick.
     */
    Cycles layerEnd(std::size_t i) const;

    // The grid the quantum kernel steps on from now_: now_ + k *
    // quantum up to the next tick and, past a quiet tick, restarted
    // at every tick (the quantum kernel cuts a step at each one).
    // The event kernel ends steps only on it, so per-job timing
    // matches the quantum kernel to within a quantum.

    /** Smallest grid point at or after `t`, strictly after now_. */
    Cycles gridCeil(Cycles t) const;
    /** gridCeil(t) once its now_-based ceiling lies past a quiet
     *  next tick. */
    Cycles tickGridCeil(Cycles t) const;
    /** Largest grid point at or before `t`, for `t` at or past a
     *  quiet next tick. */
    Cycles tickGridFloor(Cycles t) const;
    /** The last tick at or before `t`, for `t` at or past the next
     *  tick. */
    Cycles tickBase(Cycles t) const;
    /** The least end a step can have: now_ + quantum, or a quiet next
     *  tick inside the first quantum. */
    Cycles firstGridPoint() const
    {
        const Cycles q_end = now_ + cfg_.quantum;
        return quiet_ticks_ ? std::min(q_end, next_sched_tick_) : q_end;
    }

    /**
     * Advance a running job by up to `quantum` cycles.
     *
     * @param service grant/demand service ratio in (0, 1]: the memory
     *        pipeline runs 1/service times slower than at the job's
     *        private DMA caps.
     * @param dram_budget,l2_budget granted bytes this step (hard
     *        consumption clamps).
     * @param m_cap memCapTime() of the job's current layer (the
     *        probe's term; recomputed for each layer begun here).
     */
    struct AdvanceOutcome
    {
        double dramConsumed = 0.0;
        double l2Consumed = 0.0;
        bool blockBoundary = false;
        bool jobComplete = false;
    };
    AdvanceOutcome advanceJob(int id, Cycles quantum, double service,
                              double dram_budget, double l2_budget,
                              double m_cap);

    /** Memory time of the job's current layer at its private DMA
     *  caps. */
    double memCapTime(const JobHot &hot) const;

    /**
     * Remaining time of a layer with `compute` cycles and memory time
     * `m_cap` left when the memory pipeline runs at `service` x the
     * job's private cap rates.
     */
    double remainingTime(double compute, double m_cap,
                         double service) const;

    void completeJob(int id);
    void invokePolicy(SchedEvent event);

    // --- Telemetry (observational only; all null when disabled) -------
    //
    // Built by beginRun() when cfg.sampleEvery > 0; the hot path
    // (accountStep) pays one null-pointer test when sampling is off.
    std::unique_ptr<obs::Registry> tele_reg_;
    std::unique_ptr<obs::Sampler> tele_sampler_;
    obs::Gauge *tele_running_ = nullptr;
    obs::Gauge *tele_waiting_ = nullptr;
    obs::Gauge *tele_free_tiles_ = nullptr;
    obs::Gauge *tele_dram_mb_ = nullptr;
    obs::Counter *tele_done_ = nullptr;
    obs::Histogram *tele_latency_ = nullptr;

    /** Register the instrument set and arm the sampler. */
    void setupTelemetry();
    /** Refresh gauges and emit rows for every grid point up to
     *  `upto`. */
    void sampleTelemetry(Cycles upto);

    // --- Per-step scratch ---------------------------------------------
    //
    // The demand/arbitrate/advance phases run tens of millions of
    // times on long-horizon stress traces; these buffers are reserved
    // once in beginRun() (running jobs are bounded by numTiles) so
    // the hot loop never allocates.  Debug builds verify that no
    // buffer reallocated during the run (debugCheckNoRealloc).
    std::vector<mem::MemRequest> probe_requests_; ///< Quantum probe.
    std::vector<mem::MemRequest> step_requests_;  ///< Off-quantum steps.
    std::vector<mem::MemGrant> step_grants_; ///< scalePlanGrants.
    std::vector<DemandTerms> terms_; ///< Parallel to the requests.
    std::vector<BoundaryEvent> boundary_scratch_;

#ifndef NDEBUG
    /** Scratch/state capacities captured after beginRun's reserves. */
    std::vector<std::size_t> debug_caps_;
#endif
    /** Reserve id sets, results, and per-step scratch from the job
     *  count and tile count so the hot loop never grows a vector.
     *  The job-count buffers grow geometrically across injections. */
    void reserveRunState();
    /** Capacities of the buffers reserveRunState() sizes. */
    std::vector<std::size_t> runStateCapacities() const;
    void debugCaptureCapacities();
    void debugCheckNoRealloc() const;
    /** Debug-only: panic unless the rescaled step_requests_ equal a
     *  full demand pass at `step` cycles bit for bit. */
    void debugCheckStepPass(Cycles step) const;
    /** Debug-only: panic unless step_grants_, scaled from the plan
     *  with no throttle bound, equal an arbitration of the step's
     *  requests to within rounding. */
    void debugCheckScaledGrants(Cycles step) const;

#ifndef NDEBUG
    /** What a plan's scheduling points leave behind (next tick,
     *  arrivals admitted, waiting jobs, used tiles, running epoch,
     *  policy calls, quiet ticks); none of it may move while the plan
     *  is parked. */
    using PlanState = std::tuple<Cycles, std::size_t, std::size_t, int,
                                 std::uint64_t, std::uint64_t, bool>;
    PlanState debug_plan_state_;
    bool debug_parked_ = false; ///< The plan outlived an advanceTo.
    PlanState planState() const;
    /** startJob/resizeJob/pauseJob/configureThrottle calls so far. */
    std::uint64_t debug_controls_ = 0;
#endif
    /** Debug-only: panic unless a parked plan, re-derived at commit
     *  (scheduling state and quiet flag, probe requests and terms,
     *  the grants of a fresh arbitration, step end, which may lie
     *  past quiet ticks), equals the stored one bit for bit. */
    void debugCheckParkedPlan() const;
};

} // namespace moca::sim

#endif // MOCA_SIM_SOC_H
