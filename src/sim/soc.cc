#include "sim/soc.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/log.h"
#include "sim/compute_model.h"
#include "sim/traffic_model.h"

namespace moca::sim {

namespace {

constexpr double kInf = 1e30;
constexpr Cycles kNoArrival = std::numeric_limits<Cycles>::max();

/** Reserve room for at least `n` elements, at least doubling the
 *  capacity when it must grow: one-at-a-time growth (a stream of
 *  injectJob calls) then reallocates O(log n) times, not n times. */
template <typename T>
void
reserveGeometric(std::vector<T> &v, std::size_t n)
{
    if (v.capacity() < n)
        v.reserve(std::max(n, 2 * v.capacity()));
}

/**
 * a / b rounded down, through a double division below 2^52, where it
 * is exact: far cheaper than a 64-bit integer division, and the
 * tick-restarted grid runs it for nearly every job of a plan while
 * ticks are quiet.
 */
Cycles
gridQuotient(Cycles a, Cycles b)
{
    if (a >= (Cycles{1} << 52))
        return a / b;
    return static_cast<Cycles>(static_cast<double>(a) /
                               static_cast<double>(b));
}

} // anonymous namespace

void
Policy::onBlockBoundary(Soc &, int)
{
}

void
Policy::onJobComplete(Soc &, int)
{
}

Soc::Soc(const SocConfig &cfg, Policy &policy)
    : cfg_(cfg), policy_(policy),
      mem_(mem::MemoryModelRegistry::instance().make(cfg.memModel,
                                                     cfg))
{
    if (cfg_.numTiles < 1)
        fatal("SoC needs at least one tile");
    if (cfg_.quantum < 1)
        fatal("quantum must be positive");
    if (cfg_.schedPeriod < 1)
        fatal("scheduler period must be positive");
    trace_.setSocId(cfg_.socId);
}

void
Soc::appendJob(const JobSpec &spec)
{
    if (spec.model == nullptr)
        fatal("job %d has no model", spec.id);
    if (spec.id != static_cast<int>(jobs_.size()))
        fatal("job ids must be dense and in insertion order "
              "(got %d, expected %zu)", spec.id, jobs_.size());
    Job job;
    job.spec = spec;
    jobs_.push_back(std::move(job));
    hot_.emplace_back();
}

void
Soc::addJob(const JobSpec &spec)
{
    appendJob(spec);
    sorted_ = false;
}

void
Soc::sortArrivals()
{
    arrival_order_.resize(jobs_.size());
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        arrival_order_[i] = static_cast<int>(i);
    std::stable_sort(arrival_order_.begin(), arrival_order_.end(),
                     [&](int a, int b) {
                         return jobs_[a].spec.dispatch <
                             jobs_[b].spec.dispatch;
                     });
    next_arrival_ = 0;
    sorted_ = true;
}

Cycles
Soc::nextArrivalCycle() const
{
    if (next_arrival_ >= arrival_order_.size())
        return kNoArrival;
    return jobs_[arrival_order_[next_arrival_]].spec.dispatch;
}

bool
Soc::admitArrivals()
{
    bool any = false;
    while (next_arrival_ < arrival_order_.size()) {
        const int id = arrival_order_[next_arrival_];
        const Job &j = jobs_[static_cast<std::size_t>(id)];
        if (j.spec.dispatch > now_)
            break;
        hot_[static_cast<std::size_t>(id)].state = JobState::Waiting;
        waitingAdd(id);
        trace_.record(now_, TraceEventKind::JobDispatched, id);
        ++next_arrival_;
        any = true;
    }
    return any;
}

Job &
Soc::job(int id)
{
    if (id < 0 || id >= static_cast<int>(jobs_.size()))
        panic("bad job id %d", id);
    return jobs_[static_cast<std::size_t>(id)];
}

const Job &
Soc::job(int id) const
{
    return const_cast<Soc *>(this)->job(id);
}

JobHot &
Soc::hotRef(int id)
{
    if (id < 0 || id >= static_cast<int>(hot_.size()))
        panic("bad job id %d", id);
    return hot_[static_cast<std::size_t>(id)];
}

const JobHot &
Soc::hot(int id) const
{
    return const_cast<Soc *>(this)->hotRef(id);
}

void
Soc::insertSorted(std::vector<int> &ids, int id)
{
    // Ascending id order — the order the old jobs_ scans produced —
    // keeps the policy-facing queries deterministic and
    // scan-identical.
    ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
}

void
Soc::eraseSorted(std::vector<int> &ids, int id)
{
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it == ids.end() || *it != id)
        panic("job %d is not in the tracked set", id);
    ids.erase(it);
}

void
Soc::waitingAdd(int id)
{
    // Appending an id above the current tail keeps the view sorted
    // (the common case: arrivals come in ascending-id bursts).
    if (waiting_view_sorted_ && !waiting_ids_.empty() &&
        id < waiting_ids_.back())
        waiting_view_sorted_ = false;
    waiting_pos_[static_cast<std::size_t>(id)] =
        static_cast<int>(waiting_ids_.size());
    waiting_ids_.push_back(id);
}

void
Soc::waitingRemove(int id)
{
    const int pos = waiting_pos_[static_cast<std::size_t>(id)];
    if (pos < 0 ||
        waiting_ids_[static_cast<std::size_t>(pos)] != id)
        panic("job %d is not in the waiting set", id);
    const int last = waiting_ids_.back();
    if (last != id) {
        waiting_ids_[static_cast<std::size_t>(pos)] = last;
        waiting_pos_[static_cast<std::size_t>(last)] = pos;
        waiting_view_sorted_ = false;
    }
    waiting_ids_.pop_back();
    waiting_pos_[static_cast<std::size_t>(id)] = -1;
}

void
Soc::sortWaitingView() const
{
    if (waiting_view_sorted_)
        return;
    std::sort(waiting_ids_.begin(), waiting_ids_.end());
    for (std::size_t i = 0; i < waiting_ids_.size(); ++i)
        waiting_pos_[static_cast<std::size_t>(waiting_ids_[i])] =
            static_cast<int>(i);
    waiting_view_sorted_ = true;
}

int
Soc::freeTiles() const
{
    if (used_tiles_ > cfg_.numTiles)
        panic("tile over-allocation: %d of %d", used_tiles_,
              cfg_.numTiles);
    return cfg_.numTiles - used_tiles_;
}

std::uint64_t
Soc::effectiveCacheBytes() const
{
    return cfg_.l2Bytes / static_cast<std::uint64_t>(std::max<
        std::size_t>(1, running_ids_.size()));
}

void
Soc::addRunning(int id, int tiles)
{
    insertSorted(running_ids_, id);
    used_tiles_ += tiles;
    ++running_epoch_;
    quiet_ticks_ = false;
    debugCheckCounters();
}

void
Soc::dropRunning(int id, int tiles)
{
    eraseSorted(running_ids_, id);
    used_tiles_ -= tiles;
    ++running_epoch_;
    quiet_ticks_ = false;
    debugCheckCounters();
}

void
Soc::debugCheckCounters() const
{
#ifndef NDEBUG
    // The counters must track the job states exactly; a drift here
    // would silently mis-model capacity/bandwidth contention.  Only
    // verified at state transitions (not per step), so debug builds
    // pay O(jobs) per lifecycle event, not per simulated quantum.
    int scanned = 0, used = 0;
    std::size_t done = 0, waiting = 0;
    for (const auto &h : hot_) {
        if (h.state == JobState::Running) {
            ++scanned;
            used += h.numTiles;
        }
        if (h.state == JobState::Waiting ||
            h.state == JobState::Paused)
            ++waiting;
        if (h.state == JobState::Done)
            ++done;
    }
    if (scanned != static_cast<int>(running_ids_.size()) ||
        used != used_tiles_ || done != done_jobs_ ||
        waiting != waiting_ids_.size())
        panic("running-set counter drift: %zu/%d tracked, %d/%d "
              "scanned, done %zu/%zu, waiting %zu/%zu",
              running_ids_.size(), used_tiles_, scanned, used,
              done_jobs_, done, waiting_ids_.size(), waiting);
#endif
}

void
Soc::startJob(int id, int num_tiles, Cycles resume_penalty)
{
    Job &j = job(id);
    JobHot &h = hotRef(id);
    if (h.state != JobState::Waiting && h.state != JobState::Paused)
        panic("startJob(%d): job is not startable (state %d)",
              id, static_cast<int>(h.state));
    if (num_tiles < 1)
        panic("startJob(%d): need >= 1 tile", id);
    if (num_tiles > freeTiles())
        panic("startJob(%d): %d tiles requested, %d free",
              id, num_tiles, freeTiles());

    planned_ = false;
#ifndef NDEBUG
    ++debug_controls_;
#endif
    h.state = JobState::Running;
    h.numTiles = num_tiles;
    waitingRemove(id);
    addRunning(id, num_tiles);
    h.exec.valid = false;
    if (resume_penalty > 0)
        h.stallUntil = std::max(h.stallUntil, now_ + resume_penalty);
    trace_.record(now_,
                  j.started ? TraceEventKind::JobResumed
                            : TraceEventKind::JobStarted,
                  id, num_tiles);
    if (!j.started) {
        j.started = true;
        j.firstStart = now_;
    }
    j.throttle.reset();
}

void
Soc::resizeJob(int id, int num_tiles, bool charge_migration)
{
    JobHot &h = hotRef(id);
    if (h.state != JobState::Running)
        panic("resizeJob(%d): job is not running", id);
    if (num_tiles == h.numTiles)
        return;
    if (num_tiles < 1)
        panic("resizeJob(%d): need >= 1 tile", id);
    const int avail = freeTiles() + h.numTiles;
    if (num_tiles > avail)
        panic("resizeJob(%d): %d tiles requested, %d available",
              id, num_tiles, avail);

    planned_ = false;
    quiet_ticks_ = false;
#ifndef NDEBUG
    ++debug_controls_;
#endif
    used_tiles_ += num_tiles - h.numTiles;
    h.numTiles = num_tiles;
    // A tile-allocation change invalidates running-set-derived memos
    // (e.g. MoCA's co-runner mix bias) even though membership is
    // unchanged.
    ++running_epoch_;
    // The layer restarts under the new tiling; the migration stall
    // dominates the lost partial-layer work.
    h.exec.valid = false;
    if (charge_migration) {
        h.stallUntil = std::max(h.stallUntil,
                                now_ + cfg_.migrationCycles);
        job(id).migrations++;
    }
    trace_.record(now_, TraceEventKind::JobResized, id, num_tiles);
}

void
Soc::pauseJob(int id)
{
    JobHot &h = hotRef(id);
    if (h.state != JobState::Running)
        panic("pauseJob(%d): job is not running", id);
    planned_ = false;
#ifndef NDEBUG
    ++debug_controls_;
#endif
    h.state = JobState::Paused;
    waitingAdd(id);
    dropRunning(id, h.numTiles);
    h.numTiles = 0;
    h.exec.valid = false; // partial layer progress is discarded
    job(id).preemptions++;
    trace_.record(now_, TraceEventKind::JobPaused, id);
}

void
Soc::configureThrottle(int id, const hw::ThrottleConfig &tcfg)
{
    Job &j = job(id);
    planned_ = false;
#ifndef NDEBUG
    ++debug_controls_;
#endif
    j.throttle.configure(tcfg);
    trace_.record(now_, TraceEventKind::ThrottleConfig, id,
                  static_cast<long long>(tcfg.windowCycles));
}

void
Soc::beginLayer(int id)
{
    JobHot &h = hot_[static_cast<std::size_t>(id)];
    const dnn::Model &model =
        *jobs_[static_cast<std::size_t>(id)].spec.model;
    const dnn::Layer &layer = model.layer(h.layerIdx);

    const Cycles cc = computeCycles(layer, h.numTiles, cfg_);
    const LayerTraffic traffic =
        layerTraffic(layer, h.numTiles, cfg_, effectiveCacheBytes());

    h.exec.computeRem = static_cast<double>(cc);
    h.exec.l2Rem = static_cast<double>(traffic.l2Bytes);
    h.exec.dramRem = static_cast<double>(traffic.dramBytes);
    h.exec.valid = true;
}

double
Soc::memCapTime(const JobHot &hot) const
{
    // Memory time at the job's private DMA caps.  DRAM refills flow
    // through the L2 pipeline concurrently, so the memory time is the
    // slower of the two channels, not their sum.
    const LayerExecState &e = hot.exec;
    const double cap = cfg_.tileDmaBytesPerCycle *
        std::max(1, hot.numTiles);
    const double dram_cap = std::min(cap, cfg_.dramBytesPerCycle);
    const double l2_cap = std::min(cap, cfg_.l2BytesPerCycle());
    return std::max(e.dramRem / dram_cap, e.l2Rem / l2_cap);
}

double
Soc::remainingTime(double compute, double m_cap, double service) const
{
    if (service <= 0.0)
        return kInf;
    // The memory time inflated by the service ratio the shared
    // channels granted, overlapped with the compute.
    const double m = m_cap / service;
    const double f = cfg_.overlapF;
    return std::max(compute, m) + f * std::min(compute, m);
}

Soc::AdvanceOutcome
Soc::advanceJob(int id, Cycles quantum, double service,
                double dram_budget, double l2_budget, double m_cap)
{
    AdvanceOutcome out;
    double t = static_cast<double>(quantum);
    JobHot &job = hot_[static_cast<std::size_t>(id)];
    const dnn::Model &model =
        *jobs_[static_cast<std::size_t>(id)].spec.model;

    while (t > 1e-9) {
        if (!job.exec.valid) {
            beginLayer(id);
            m_cap = memCapTime(job);
        }

        const double t_rem =
            remainingTime(job.exec.computeRem, m_cap, service);
        // Hard grant clamps: progress cannot consume more bytes than
        // the arbiters granted this quantum.
        double df_max = t / t_rem;
        if (job.exec.dramRem > 1e-9)
            df_max = std::min(df_max,
                              dram_budget / job.exec.dramRem);
        if (job.exec.l2Rem > 1e-9)
            df_max = std::min(df_max, l2_budget / job.exec.l2Rem);

        if (df_max >= 1.0 && t_rem <= t) {
            // Layer completes within this quantum.
            out.dramConsumed += job.exec.dramRem;
            out.l2Consumed += job.exec.l2Rem;
            dram_budget -= job.exec.dramRem;
            l2_budget -= job.exec.l2Rem;
            t -= t_rem;
            job.exec = LayerExecState();
            job.layerIdx++;

            if (job.layerIdx >= model.numLayers()) {
                out.jobComplete = true;
                break;
            }
            const auto &blocks = model.blocks();
            if (job.blockIdx + 1 < blocks.size() &&
                job.layerIdx >= blocks[job.blockIdx + 1].first) {
                job.blockIdx++;
                out.blockBoundary = true;
                // Give the policy a reconfiguration opportunity
                // before the next block begins.
                break;
            }
            if (cfg_.layerBoundaryEvents) {
                // Granularity ablation: boundary hook per layer.
                out.blockBoundary = true;
                break;
            }
        } else {
            const double frac = std::min(df_max, t / t_rem);
            const double dram_used = frac * job.exec.dramRem;
            const double l2_used = frac * job.exec.l2Rem;
            out.dramConsumed += dram_used;
            out.l2Consumed += l2_used;
            dram_budget -= dram_used;
            l2_budget -= l2_used;
            job.exec.computeRem *= 1.0 - frac;
            job.exec.dramRem *= 1.0 - frac;
            job.exec.l2Rem *= 1.0 - frac;
            t = 0.0;
        }
    }
    return out;
}

void
Soc::completeJob(int id)
{
    JobHot &h = hot_[static_cast<std::size_t>(id)];
    Job &job = jobs_[static_cast<std::size_t>(id)];
    const bool was_running = h.state == JobState::Running;
    h.state = JobState::Done;
    ++done_jobs_;
    if (was_running)
        dropRunning(id, h.numTiles);
    h.numTiles = 0;
    job.finish = now_;

    JobResult r;
    r.spec = job.spec;
    r.firstStart = job.firstStart;
    r.finish = job.finish;
    r.dramBytesMoved = job.dramBytesMoved;
    r.l2BytesMoved = job.l2BytesMoved;
    r.stallCycles = job.stallCycles;
    r.migrations = job.migrations;
    r.preemptions = job.preemptions;
    r.throttleReconfigs =
        static_cast<int>(job.throttle.stats().reconfigurations);
    results_.push_back(r);
    trace_.record(now_, TraceEventKind::JobCompleted, id);
    if (tele_done_) {
        tele_done_->add();
        tele_latency_->observe(
            static_cast<double>(now_ - job.spec.dispatch));
    }
}

void
Soc::invokePolicy(SchedEvent event)
{
    stats_.schedInvocations++;
    quiet_ticks_ = false;
    policy_.schedule(*this, event);
}

void
Soc::deliverTick()
{
#ifndef NDEBUG
    // A quiet tick must be a no-op.  The quantum kernel delivers every
    // tick, so this checks the policy's declaration at each of them.
    const bool quiet = quiet_ticks_;
    const std::uint64_t epoch = running_epoch_;
    const std::uint64_t controls = debug_controls_;
#endif
    invokePolicy(SchedEvent::PeriodicTick);
#ifndef NDEBUG
    if (quiet && (running_epoch_ != epoch || debug_controls_ != controls))
        panic("policy '%s' declared ticks quiet, but its tick at %llu "
              "made %llu control call(s)", policy_.name(),
              static_cast<unsigned long long>(now_),
              static_cast<unsigned long long>(debug_controls_ - controls));
#endif
}

void
Soc::skipTicks(Cycles limit)
{
    if (limit <= next_sched_tick_)
        return;
    const Cycles period = cfg_.schedPeriod;
    const Cycles k = (limit - next_sched_tick_ + period - 1) / period;
    if (trace_.enabled()) {
        // Keep the event log identical to firing each tick in turn.
        for (Cycles i = 0; i < k; ++i)
            trace_.record(next_sched_tick_ + i * period,
                          TraceEventKind::SchedTick, -1);
    }
    next_sched_tick_ += k * period;
}

// --- Shared step phases -----------------------------------------------

bool
Soc::schedulingPoints(Cycles horizon)
{
    if (admitArrivals())
        invokePolicy(SchedEvent::JobArrival);
    if (now_ >= next_sched_tick_) {
        trace_.record(now_, TraceEventKind::SchedTick, -1);
        // A quiet tick cannot act: the event kernel skips it.
        if (!quiet_ticks_ || cfg_.kernel != SimKernel::Event)
            deliverTick();
        next_sched_tick_ = now_ + cfg_.schedPeriod;
    }

    if (!running_ids_.empty())
        return true;

    const Cycles na = nextArrivalCycle();
    if (na != kNoArrival) {
        // Idle-advance to the next arrival, but never past the
        // caller's horizon (a co-simulator may inject work there).
        const Cycles limit = std::min(na, horizon);
        if (waiting_ids_.empty()) {
            // An empty SoC: every policy is a no-op on a tick here
            // (see Policy), so skip the ticks strictly before `limit`
            // in closed form.  The grid stays 0-based, so the first
            // real tick fires where it would had every tick fired.
            skipTicks(limit);
            jumpIdle(limit);
            return false;
        }
        // Waiting jobs: a tick may start one, so stop at each tick.
        jumpIdle(std::min(limit, next_sched_tick_));
        return false;
    }
    // No arrivals left and nothing running: the policy must start a
    // waiting/paused job now or we are deadlocked.
    invokePolicy(SchedEvent::PeriodicTick);
    if (running_ids_.empty() && !allDone())
        fatal("policy deadlock: %zu jobs unfinished, nothing "
              "running, no arrivals pending", waiting_ids_.size());
    return !running_ids_.empty();
}

Soc::DemandTerms
Soc::demandTerms(const JobHot &j) const
{
    DemandTerms t;
    t.mCap = memCapTime(j);
    t.tFull = remainingTime(j.exec.computeRem, t.mCap, 1.0);
    if (t.tFull > 0.0 && t.tFull < kInf) {
        t.l2Rate = j.exec.l2Rem / t.tFull;
        t.dramRate = j.exec.dramRem / t.tFull;
    }
    return t;
}

bool
Soc::demandAt(const DemandTerms &t, Cycles horizon,
              mem::MemRequest &r) const
{
    const JobHot &j = hot_[static_cast<std::size_t>(r.id)];
    // Private (uncontended) rate cap of the job's DMA engines.
    const double cap = cfg_.tileDmaBytesPerCycle * j.numTiles;
    const double q = static_cast<double>(horizon);

    double l2_des, dram_des;
    if (t.tFull >= kInf) {
        l2_des = dram_des = 0.0;
    } else if (t.tFull <= std::min(q, static_cast<double>(cfg_.quantum))) {
        // Layer (and possibly more) finishes within the step's first
        // quantum at private speed: ask for the full rate.  A longer
        // step never takes this branch, because the quantum kernel
        // would spend every quantum before the layer tail in the
        // balanced branch below.
        l2_des = std::min(j.exec.l2Rem + q * cap * 0.25, q * cap);
        dram_des = std::min(j.exec.dramRem + q * cap * 0.25, q * cap);
    } else {
        // The decoupled DMA runs ahead of compute: it issues
        // at up to dmaRunAhead x the balanced rate until the
        // scratchpad double-buffer backpressures.
        const double ahead = std::max(1.0, cfg_.dmaRunAhead);
        l2_des = std::min(q * cap, ahead * q * t.l2Rate);
        dram_des = std::min(q * cap, ahead * q * t.dramRate);
    }

    // MoCA throttle: cap by the per-tile window allowance.
    bool bound = false;
    const hw::ThrottleEngine &throttle =
        jobs_[static_cast<std::size_t>(r.id)].throttle;
    if (throttle.config().enabled() || l2_des > 0.0) {
        const std::uint64_t beats_per_tile =
            throttle.peekAllowance(horizon);
        const double allowed = static_cast<double>(beats_per_tile) *
            static_cast<double>(cfg_.dmaBeatBytes) * j.numTiles;
        if (l2_des > allowed) {
            bound = true;
            const double scale = l2_des > 0.0 ? allowed / l2_des : 0.0;
            l2_des = allowed;
            dram_des *= scale;
        }
    }
    r.l2Bytes = l2_des;
    r.dramBytes = dram_des;
    return bound;
}

mem::MemRequest
Soc::stepDemand(int id, Cycles step) const
{
    const JobHot &j = hot(id);
    mem::MemRequest r;
    r.id = id;
    r.weight = std::max(1, j.numTiles);
    if (j.state == JobState::Running && j.stallUntil <= now_ &&
        j.exec.valid)
        demandAt(demandTerms(j), step, r);
    return r;
}

void
Soc::probeJob(int id, mem::MemRequest &r, DemandTerms &t) const
{
    const JobHot &j = hot_[static_cast<std::size_t>(id)];
    r = mem::MemRequest();
    r.id = id;
    r.weight = std::max(1, j.numTiles);
    t = DemandTerms();
    if (j.stallUntil > now_) {
        t.stalled = true;
    } else {
        t = demandTerms(j);
        t.throttled =
            jobs_[static_cast<std::size_t>(id)].throttle.config().enabled();
        t.throttleBound = demandAt(t, cfg_.quantum, r);
    }
}

void
Soc::probeDemands()
{
    probe_requests_.clear();
    terms_.clear();
    for (int id : running_ids_) {
        const JobHot &j = hot_[static_cast<std::size_t>(id)];
        if (j.stallUntil <= now_ && !j.exec.valid)
            beginLayer(id);
        probe_requests_.emplace_back();
        terms_.emplace_back();
        probeJob(id, probe_requests_.back(), terms_.back());
    }
}

Soc::StepBinds
Soc::rescaleDemands(Cycles step)
{
    // Below the layer end every demand term is linear in the step
    // except the throttle allowance, which demandAt re-reads.
    StepBinds binds;
    step_requests_ = probe_requests_;
    for (std::size_t i = 0; i < step_requests_.size(); ++i) {
        DemandTerms &t = terms_[i];
        if (t.stalled)
            continue;
        const bool probe_bound = t.throttleBound;
        t.throttleBound = demandAt(t, step, step_requests_[i]);
        binds.probe = binds.probe || probe_bound;
        binds.runOut = binds.runOut || (t.throttleBound && !probe_bound);
    }
    return binds;
}

const std::vector<mem::MemGrant> &
Soc::arbitrate(const std::vector<mem::MemRequest> &requests,
               Cycles horizon, mem::MemStepStats &step)
{
    const std::vector<mem::MemGrant> &grants =
        mem_->arbitrate(requests, horizon, step);
    if (grants.size() != requests.size())
        fatal("memory model '%s' returned %zu grants for %zu "
              "requests (zero-demand requesters must get zero "
              "grants, not be dropped)",
              mem_->name(), grants.size(), requests.size());
    return grants;
}

void
Soc::accountThrash(const mem::MemStepStats &step, double scale)
{
    if (step.thrashed) {
        stats_.thrashQuanta++;
        stats_.thrashLostBytes += step.thrashLostBytes * scale;
    }
}

const std::vector<mem::MemGrant> &
Soc::scalePlanGrants(Cycles step)
{
    // Grants are linear in the step below every layer tail, so the
    // step's grants are the quantum's, scaled.  The cap at the step
    // request is the throttle run-out rule: a job whose window
    // budget runs out inside the step gets at most its allowance,
    // and the bandwidth it leaves is not handed to its co-runners.
    const double s =
        static_cast<double>(step) / static_cast<double>(cfg_.quantum);
    step_grants_.resize(step_requests_.size());
    for (std::size_t i = 0; i < step_requests_.size(); ++i) {
        const mem::MemGrant &g = plan_grants_[i];
        const mem::MemRequest &r = step_requests_[i];
        step_grants_[i].dramBytes =
            std::min(s * g.dramBytes, r.dramBytes);
        step_grants_[i].l2Bytes = std::min(s * g.l2Bytes, r.l2Bytes);
    }
    accountThrash(plan_mem_stats_, s);
    return step_grants_;
}

double
Soc::serviceRatio(const mem::MemRequest &r, const mem::MemGrant &g) const
{
    // Service ratio: how much of the demanded issue rate the shared
    // channels actually granted.
    double service = 1.0;
    if (r.dramBytes > 1e-9)
        service = std::min(service, g.dramBytes / r.dramBytes);
    if (r.l2Bytes > 1e-9)
        service = std::min(service, g.l2Bytes / r.l2Bytes);
    // The demand already includes the run-ahead margin; the balanced
    // rate is demand / runAhead, so a grant of demand/runAhead still
    // sustains full-speed execution.
    return std::min(1.0, service * std::max(1.0, cfg_.dmaRunAhead));
}

double
Soc::advanceEntries(const std::vector<mem::MemRequest> &requests,
                    const std::vector<mem::MemGrant> &grants,
                    Cycles horizon)
{
    double dram_used = 0.0;
    boundary_scratch_.clear();
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const int id = requests[i].id;
        Job &j = jobs_[static_cast<std::size_t>(id)];
        const JobHot &h = hot_[static_cast<std::size_t>(id)];
        if (terms_[i].stalled) {
            j.stallCycles += std::min<Cycles>(
                horizon, h.stallRemaining(now_));
            j.throttle.advance(horizon, 0);
            continue;
        }
        const mem::MemGrant &g = grants[i];
        const AdvanceOutcome adv =
            advanceJob(id, horizon, serviceRatio(requests[i], g),
                       g.dramBytes, g.l2Bytes, terms_[i].mCap);

        j.dramBytesMoved +=
            static_cast<std::uint64_t>(adv.dramConsumed);
        j.l2BytesMoved +=
            static_cast<std::uint64_t>(adv.l2Consumed);
        dram_used += adv.dramConsumed;

        // Account the consumed traffic in the throttle engine
        // (per tile).
        const std::uint64_t beats = static_cast<std::uint64_t>(
            adv.l2Consumed /
            (static_cast<double>(cfg_.dmaBeatBytes) *
             std::max(1, h.numTiles)));
        j.throttle.advance(horizon, beats);

        if (adv.blockBoundary || adv.jobComplete)
            boundary_scratch_.push_back(
                {id, adv.blockBoundary, adv.jobComplete});
    }
    return dram_used;
}

void
Soc::accountStep(Cycles step, double dram_used)
{
    now_ += step;
    stats_.quanta++;
    stats_.dramBytes += static_cast<std::uint64_t>(dram_used);
    dram_busy_cycles_ += dram_used / cfg_.dramBytesPerCycle;
    if (tele_sampler_ && now_ >= tele_sampler_->pending())
        sampleTelemetry(now_);
}

void
Soc::jumpIdle(Cycles to)
{
    if (to <= now_)
        return;
    // The state holds until `to`, where the next step starts: sample
    // the grid points before it now, or that step would stamp them
    // with its own post-step state.
    if (tele_sampler_ && to - 1 >= tele_sampler_->pending())
        sampleTelemetry(to - 1);
    now_ = to;
}

void
Soc::sampleIdleUntil(Cycles t)
{
    if (tele_sampler_)
        sampleTelemetry(t);
}

void
Soc::setupTelemetry()
{
    tele_reg_ = std::make_unique<obs::Registry>();
    tele_running_ = &tele_reg_->gauge("running_jobs");
    tele_waiting_ = &tele_reg_->gauge("waiting_jobs");
    tele_free_tiles_ = &tele_reg_->gauge("free_tiles");
    tele_dram_mb_ = &tele_reg_->gauge("dram_mb");
    tele_done_ = &tele_reg_->counter("jobs_completed");
    tele_latency_ = &tele_reg_->histogram(
        "job_latency_cycles", {1e5, 1e6, 1e7, 1e8, 1e9});
    tele_sampler_ =
        std::make_unique<obs::Sampler>(*tele_reg_, cfg_.sampleEvery);
}

void
Soc::sampleTelemetry(Cycles upto)
{
    // State is piecewise-constant between steps, so the post-step
    // values hold at every grid point the step crossed.
    tele_running_->set(static_cast<double>(running_ids_.size()));
    tele_waiting_->set(static_cast<double>(waiting_ids_.size()));
    tele_free_tiles_->set(static_cast<double>(freeTiles()));
    tele_dram_mb_->set(static_cast<double>(stats_.dramBytes) /
                       static_cast<double>(MiB));
    tele_sampler_->tick(upto);
}

void
Soc::dispatchBoundaries()
{
    bool completion = false;
    for (const auto &ev : boundary_scratch_) {
        if (ev.complete) {
            completeJob(ev.id);
            policy_.onJobComplete(*this, ev.id);
            completion = true;
        } else if (ev.blockBoundary) {
            trace_.record(
                now_, TraceEventKind::BlockBoundary, ev.id,
                static_cast<long long>(
                    hot_[static_cast<std::size_t>(ev.id)].blockIdx));
            policy_.onBlockBoundary(*this, ev.id);
        }
    }
    if (completion)
        invokePolicy(SchedEvent::JobCompletion);
}

// --- The step ---------------------------------------------------------

bool
Soc::planStep(Cycles horizon)
{
    if (!schedulingPoints(horizon))
        return false;

    // Probe pass at quantum granularity: the demand-shape branch and
    // throttle binding of the next quantum, plus each job's layer
    // terms.  Under the event kernel they stay constant until the
    // next state change (demand rates are layer-invariant: every
    // remaining quantity shrinks by the same factor as the layer
    // advances).
    probeDemands();
    // The event kernel over a stateless memory model arbitrates the
    // probe: the grants give each job's contended progress rate,
    // which bounds the step (nextStateChange), and a one-quantum step
    // reuses them.  A stateful model (banked) is arbitrated only by
    // the committed step, so it keeps the full-service bound.
    plan_arbitrated_ = cfg_.kernel == SimKernel::Event &&
        mem_->cyclesUntilNextChange() == 0;
    if (plan_arbitrated_)
        plan_grants_ =
            arbitrate(probe_requests_, cfg_.quantum, plan_mem_stats_);
    plan_end_ = stepEnd();
    planned_ = true;
#ifndef NDEBUG
    debug_plan_state_ = planState();
    debug_parked_ = false;
#endif
    return true;
}

Cycles
Soc::stepEnd() const
{
    // The periodic tick and the next arrival bound every step, so the
    // tick fires at the exact schedPeriod cadence and arrivals are
    // admitted at their exact dispatch cycle.  Both lie strictly
    // after now_.
    const Cycles arrival = nextArrivalCycle();
    // The kernel only picks how far the step may reach: one quantum,
    // or the next in-SoC state change (never short of the first grid
    // point).
    if (cfg_.kernel != SimKernel::Event)
        return std::min({next_sched_tick_, arrival, now_ + cfg_.quantum});
    const Cycles change = nextStateChange();
    // A quiet tick cannot act, so on the event kernel it bounds only
    // a step with no state change pending.
    if (quiet_ticks_ && change != kNoEvent)
        return std::min(arrival, change);
    return std::min({next_sched_tick_, arrival, change});
}

void
Soc::commitStep()
{
#ifndef NDEBUG
    if (debug_parked_)
        debugCheckParkedPlan();
    debug_parked_ = false;
#endif
    planned_ = false;
    const Cycles step = plan_end_ - now_;

    // A full-quantum step (every quantum-kernel step, and the tail
    // step of each layer under the event kernel) reuses the probe,
    // and its grants when the plan arbitrated them; any other step
    // rescales the probe's terms to the step.
    const std::vector<mem::MemRequest> *requests = &probe_requests_;
    StepBinds binds;
    if (step != cfg_.quantum) {
        binds = rescaleDemands(step);
        debugCheckStepPass(step);
        requests = &step_requests_;
    }
    const std::vector<mem::MemGrant> *grants = &plan_grants_;
    if (plan_arbitrated_ && step == cfg_.quantum) {
        accountThrash(plan_mem_stats_, 1.0);
    } else if (plan_arbitrated_ && step > cfg_.quantum &&
               (binds.runOut || !binds.probe)) {
        grants = &scalePlanGrants(step);
        if (!binds.runOut)
            debugCheckScaledGrants(step);
    } else {
        // The quantum kernel, a stateful memory model, a step shorter
        // than a quantum (its demand shape may differ from the
        // probe's), or a throttle that bound the probe (its
        // allowance is not linear in the step).
        mem::MemStepStats mem_step;
        grants = &arbitrate(*requests, step, mem_step);
        accountThrash(mem_step, 1.0);
    }
    const double dram_used = advanceEntries(*requests, *grants, step);
    accountStep(step, dram_used);
    // The quiet ticks the step crossed; one at its end is due at the
    // next scheduling points.
    skipTicks(now_);
    dispatchBoundaries();
}

Cycles
Soc::nextStateChange() const
{
    // Every candidate lies at or after the first grid point, so the
    // scan stops once one reaches it.
    const Cycles least = firstGridPoint();
    Cycles next = kNoEvent;
    // A stateful memory model (e.g. banked row-locality) bounds the
    // step so its internal state is re-sampled often enough; the
    // stateless flat model returns 0 and adds no bound.
    const Cycles mem_change = mem_->cyclesUntilNextChange();
    if (mem_change > 0)
        next = std::min(next, gridCeil(now_ + mem_change));
    for (std::size_t i = 0; i < terms_.size() && next != least; ++i) {
        const int id = probe_requests_[i].id;
        const DemandTerms &e = terms_[i];
        if (e.stalled) {
            next = std::min(
                next,
                gridCeil(hot_[static_cast<std::size_t>(id)].stallUntil));
            continue;
        }
        if (e.tFull < kInf)
            next = std::min(next, layerEnd(i));
        if (e.throttleBound) {
            // A binding throttle re-opens at the engine's next
            // state change (window rollover / reconfig-stall
            // end); stop there so per-window pacing is not
            // smeared across a long step.
            const Cycles c = jobs_[static_cast<std::size_t>(id)]
                                 .throttle.cyclesUntilNextChange();
            if (c > 0)
                next = std::min(next, gridCeil(now_ + c));
        }
    }
    return next;
}

Cycles
Soc::layerEnd(std::size_t i) const
{
    // A layer can never finish before its full-service remaining
    // time, so step at most to the grid point strictly *before* it:
    // the tail quantum then replays the quantum kernel's end-of-layer
    // demand burst exactly, and no step ever spans a demand-shape
    // change.
    const DemandTerms &e = terms_[i];
    const double t = e.tFull;
    const Cycles quantum = cfg_.quantum;
    const double q = static_cast<double>(quantum);
    const double period = static_cast<double>(cfg_.schedPeriod);
    // The one-period cap.  A tick ends every step unless ticks are
    // quiet; then only a throttled job keeps it, since its window
    // budget may run out inside a longer step.
    const bool capped = !quiet_ticks_ || e.throttled;
    const double limit = static_cast<double>(cfg_.maxCycles);
    const Cycles dt = static_cast<Cycles>(
        std::ceil(std::min(t, capped ? period : limit)));
    const Cycles k_floor = dt > 1 ? (dt - 1) / quantum : 0;
    Cycles k = std::max<Cycles>(1, k_floor);

    // Contended bound.  Below the tail the job moves a fixed fraction
    // `frac` of the probe's remaining layer per quantum (advanceJob's
    // progress under the probe's grants), so its full-service
    // remaining time after k quanta is t * (1 - k * frac).  Step to
    // the first grid point where that is at most one quantum: every
    // quantum before it sees the same demands and grants.
    double k_rate = 0.0; // Quanta to that point, unrounded.
    if (plan_arbitrated_ && t > q) {
        const mem::MemRequest &r = probe_requests_[i];
        const mem::MemGrant &g = plan_grants_[i];
        const LayerExecState &x =
            hot_[static_cast<std::size_t>(r.id)].exec;
        double frac =
            q / remainingTime(x.computeRem, e.mCap, serviceRatio(r, g));
        if (x.dramRem > 1e-9)
            frac = std::min(frac, g.dramBytes / x.dramRem);
        if (x.l2Rem > 1e-9)
            frac = std::min(frac, g.l2Bytes / x.l2Rem);
        k_rate = (t - q) / (frac * t);
        if (capped) {
            // A job with no progress (frac 0) is bounded by the cap.
            k_rate = std::min(k_rate, std::ceil(period / q));
        } else if (!(k_rate * q < limit)) {
            // No progress, and no cap: bounded by the next tick.
            return next_sched_tick_;
        }
        const double k_ceil = std::ceil(k_rate);
        if (k_ceil > static_cast<double>(k))
            k = static_cast<Cycles>(k_ceil);
    }
    const Cycles end = now_ + k * quantum;
    const Cycles tick = next_sched_tick_;
    if (!quiet_ticks_ || (end <= tick && now_ + dt <= tick))
        return end;

    // Past a quiet tick, both bounds round on the tick-restarted grid.
    // The floor is the last point strictly before now_ + dt (at least
    // the first one), the rate bound the first at or after its target.
    Cycles bound = now_ + dt > tick
        ? tickGridFloor(now_ + dt - 1)
        : std::max(firstGridPoint(), now_ + k_floor * quantum);
    if (k_rate > 0.0)
        bound = std::max(bound, gridCeil(now_ + static_cast<Cycles>(
                                             std::ceil(k_rate * q))));
    return bound;
}

Cycles
Soc::gridCeil(Cycles t) const
{
    if (quiet_ticks_ && t > next_sched_tick_)
        return tickGridCeil(t);
    const Cycles quantum = cfg_.quantum;
    const Cycles c = t <= now_
        ? now_ + quantum
        : now_ + (t - now_ + quantum - 1) / quantum * quantum;
    return quiet_ticks_ && c > next_sched_tick_ ? next_sched_tick_ : c;
}

Cycles
Soc::tickGridCeil(Cycles t) const
{
    // The quantum kernel cuts a step at each tick and restarts its
    // grid there, so a grid point is a tick plus a whole number of
    // quanta short of the next tick, or a tick.
    const Cycles tick = next_sched_tick_;
    if (t <= tick)
        return tick;
    const Cycles period = cfg_.schedPeriod;
    const Cycles quantum = cfg_.quantum;
    const Cycles base = tickBase(t);
    return std::min(
        base + gridQuotient(t - base + quantum - 1, quantum) * quantum,
        base + period);
}

Cycles
Soc::tickGridFloor(Cycles t) const
{
    const Cycles base = tickBase(t);
    return base + gridQuotient(t - base, cfg_.quantum) * cfg_.quantum;
}

Cycles
Soc::tickBase(Cycles t) const
{
    // Most candidates lie within a period of the next tick.
    const Cycles tick = next_sched_tick_;
    const Cycles period = cfg_.schedPeriod;
    return t - tick < period
        ? tick
        : tick + gridQuotient(t - tick, period) * period;
}

void
Soc::beginRun()
{
    if (!sorted_)
        sortArrivals();
    if (!began_) {
        next_sched_tick_ = 0;
        began_ = true;
    }
    if (cfg_.sampleEvery > 0 && !tele_reg_)
        setupTelemetry();
    reserveRunState();
    debugCaptureCapacities();
}

void
Soc::reserveRunState()
{
    // Arena-style up-front sizing: after this point the hot loop
    // performs no vector growth (checked in debug builds).  The id
    // sets and results are bounded by the job count; the per-step
    // scratch by the running-set bound (one tile minimum per job).
    const std::size_t nj = jobs_.size();
    const std::size_t nr = static_cast<std::size_t>(
        std::max(1, cfg_.numTiles));
    reserveGeometric(waiting_ids_, nj);
    waiting_pos_.resize(nj, -1);
    reserveGeometric(running_ids_, nj);
    reserveGeometric(results_, nj);
    probe_requests_.reserve(nr);
    step_requests_.reserve(nr);
    plan_grants_.reserve(nr);
    step_grants_.reserve(nr);
    terms_.reserve(nr);
    boundary_scratch_.reserve(nr);
}

std::vector<std::size_t>
Soc::runStateCapacities() const
{
    return {waiting_ids_.capacity(),     running_ids_.capacity(),
            results_.capacity(),         probe_requests_.capacity(),
            step_requests_.capacity(),   terms_.capacity(),
            boundary_scratch_.capacity(), plan_grants_.capacity(),
            step_grants_.capacity()};
}

void
Soc::debugCaptureCapacities()
{
#ifndef NDEBUG
    debug_caps_ = runStateCapacities();
#endif
}

void
Soc::debugCheckNoRealloc() const
{
#ifndef NDEBUG
    if (runStateCapacities() != debug_caps_)
        panic("hot-loop vector reallocated during run "
              "(reserveRunState under-sized a buffer)");
#endif
}

void
Soc::debugCheckStepPass(Cycles step) const
{
#ifndef NDEBUG
    // The rescaled step pass must equal a full demand pass at the
    // step length, bit for bit.
    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    for (std::size_t i = 0; i < step_requests_.size(); ++i) {
        const mem::MemRequest &got = step_requests_[i];
        const JobHot &j = hot_[static_cast<std::size_t>(got.id)];
        mem::MemRequest want;
        want.id = got.id;
        const bool stalled = j.stallUntil > now_;
        const bool bound =
            !stalled && demandAt(demandTerms(j), step, want);
        if (stalled != terms_[i].stalled ||
            bound != terms_[i].throttleBound ||
            !same(want.l2Bytes, got.l2Bytes) ||
            !same(want.dramBytes, got.dramBytes))
            panic("step pass diverged from a full demand pass: job %d, "
                  "step %llu: l2 %.17g vs %.17g, dram %.17g vs %.17g, "
                  "stalled %d vs %d, throttle-bound %d vs %d",
                  got.id, static_cast<unsigned long long>(step),
                  got.l2Bytes, want.l2Bytes, got.dramBytes,
                  want.dramBytes, terms_[i].stalled, stalled,
                  terms_[i].throttleBound, bound);
    }
#else
    (void)step;
#endif
}

void
Soc::debugCheckScaledGrants(Cycles step) const
{
#ifndef NDEBUG
    // With no throttle bound, every demand and grant is linear in the
    // step below the layer tails, so the scaled grants equal an
    // arbitration of the step's requests up to rounding (the model is
    // stateless).
    mem::MemStepStats st;
    const std::vector<mem::MemGrant> &fresh =
        mem_->arbitrate(step_requests_, step, st);
    const double tol = 1e-9 * static_cast<double>(step) *
        (cfg_.dramBytesPerCycle + cfg_.l2BytesPerCycle());
    for (std::size_t i = 0; i < fresh.size(); ++i)
        if (std::abs(fresh[i].dramBytes - step_grants_[i].dramBytes) >
                tol ||
            std::abs(fresh[i].l2Bytes - step_grants_[i].l2Bytes) > tol)
            panic("scaled grants diverged from a step arbitration: job "
                  "%d, step %llu: dram %.17g vs %.17g, l2 %.17g vs "
                  "%.17g", step_requests_[i].id,
                  static_cast<unsigned long long>(step),
                  step_grants_[i].dramBytes, fresh[i].dramBytes,
                  step_grants_[i].l2Bytes, fresh[i].l2Bytes);
#else
    (void)step;
#endif
}

#ifndef NDEBUG
Soc::PlanState
Soc::planState() const
{
    return PlanState{next_sched_tick_, next_arrival_,
                     waiting_ids_.size(), used_tiles_, running_epoch_,
                     stats_.schedInvocations, quiet_ticks_};
}
#endif

void
Soc::debugCheckParkedPlan() const
{
#ifndef NDEBUG
    // Nothing a parked plan was derived from may move while it waits:
    // its scheduling points are still spent (no arrival or tick due),
    // and a fresh probe and step end equal the stored ones bit for
    // bit.
    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    const auto at = static_cast<unsigned long long>(now_);
    if (planState() != debug_plan_state_ ||
        next_sched_tick_ <= now_ || nextArrivalCycle() <= now_)
        panic("parked plan at %llu: scheduling state moved while it "
              "was parked", at);
    // Only quiet ticks (still declared: planState) let a step pass a
    // tick.
    if (plan_end_ > next_sched_tick_ && !quiet_ticks_)
        panic("parked plan at %llu ends at %llu, past the tick at %llu",
              at, static_cast<unsigned long long>(plan_end_),
              static_cast<unsigned long long>(next_sched_tick_));
    if (probe_requests_.size() != running_ids_.size())
        panic("parked plan at %llu: %zu requests for %zu running jobs",
              at, probe_requests_.size(), running_ids_.size());
    for (std::size_t i = 0; i < running_ids_.size(); ++i) {
        const int id = running_ids_[i];
        const JobHot &j = hot_[static_cast<std::size_t>(id)];
        if (j.stallUntil <= now_ && !j.exec.valid)
            panic("parked plan at %llu: job %d lost its layer state",
                  at, id);
        mem::MemRequest want;
        DemandTerms t;
        probeJob(id, want, t);
        const mem::MemRequest &got = probe_requests_[i];
        const DemandTerms &e = terms_[i];
        if (got.id != want.id || got.weight != want.weight ||
            !same(got.l2Bytes, want.l2Bytes) ||
            !same(got.dramBytes, want.dramBytes) ||
            e.stalled != t.stalled || e.throttled != t.throttled ||
            e.throttleBound != t.throttleBound ||
            !same(e.tFull, t.tFull) || !same(e.mCap, t.mCap) ||
            !same(e.l2Rate, t.l2Rate) ||
            !same(e.dramRate, t.dramRate))
            panic("parked plan at %llu diverged from a fresh probe: "
                  "job %d: l2 %.17g vs %.17g, dram %.17g vs %.17g, "
                  "tFull %.17g vs %.17g", at, id, got.l2Bytes,
                  want.l2Bytes, got.dramBytes, want.dramBytes, e.tFull,
                  t.tFull);
    }
    if (plan_arbitrated_) {
        // The stored grants are a fresh arbitration of the stored
        // requests (the model is stateless), bit for bit.
        mem::MemStepStats st;
        const std::vector<mem::MemGrant> &fresh =
            mem_->arbitrate(probe_requests_, cfg_.quantum, st);
        if (fresh.size() != plan_grants_.size())
            panic("parked plan at %llu: %zu grants, re-derived %zu", at,
                  plan_grants_.size(), fresh.size());
        for (std::size_t i = 0; i < fresh.size(); ++i)
            if (!same(fresh[i].dramBytes, plan_grants_[i].dramBytes) ||
                !same(fresh[i].l2Bytes, plan_grants_[i].l2Bytes))
                panic("parked plan at %llu: job %d grant dram %.17g vs "
                      "%.17g, l2 %.17g vs %.17g", at,
                      probe_requests_[i].id, plan_grants_[i].dramBytes,
                      fresh[i].dramBytes, plan_grants_[i].l2Bytes,
                      fresh[i].l2Bytes);
        if (st.thrashed != plan_mem_stats_.thrashed ||
            !same(st.thrashLostBytes, plan_mem_stats_.thrashLostBytes))
            panic("parked plan at %llu: thrash diverged", at);
    }
    const Cycles end = stepEnd();
    if (end != plan_end_)
        panic("parked plan at %llu: step end %llu, re-derived %llu", at,
              static_cast<unsigned long long>(plan_end_),
              static_cast<unsigned long long>(end));
#endif
}

void
Soc::advanceTo(Cycles horizon)
{
    if (!began_)
        panic("advanceTo before beginRun");
    // kNoHorizon never parks a step (every plan ends before it), so
    // draining to completion takes the bounded code path.
    while (behind(horizon)) {
        if (now_ > cfg_.maxCycles)
            fatal("simulation exceeded %llu cycles; policy deadlock?",
                  static_cast<unsigned long long>(cfg_.maxCycles));
        stats_.advancePasses++;
        // A step planned past the horizon parks: behind() turns
        // false on its end.
        if ((planned_ || planStep(horizon)) && plan_end_ <= horizon)
            commitStep();
    }
#ifndef NDEBUG
    debug_parked_ = planned_;
#endif
}

void
Soc::injectJob(const JobSpec &spec)
{
    if (!began_)
        panic("injectJob before beginRun (use addJob)");
    if (spec.dispatch < now_)
        fatal("injectJob(%d): dispatch %llu is before now %llu",
              spec.id, static_cast<unsigned long long>(spec.dispatch),
              static_cast<unsigned long long>(now_));
    const Cycles pending = nextArrivalCycle();
    if (pending != kNoArrival &&
        spec.dispatch < jobs_[arrival_order_.back()].spec.dispatch)
        fatal("injectJob(%d): dispatch order violated", spec.id);

    if (planned_) {
        // The parked step's scheduling points ran at now_, so the job
        // must arrive after it; like any pending arrival, it bounds
        // the step.
        if (spec.dispatch <= now_)
            panic("injectJob(%d): dispatch %llu is not after the "
                  "parked SoC's clock %llu", spec.id,
                  static_cast<unsigned long long>(spec.dispatch),
                  static_cast<unsigned long long>(now_));
        plan_end_ = std::min(plan_end_, spec.dispatch);
    }

    appendJob(spec);
    // Injections arrive in nondecreasing dispatch order, so the
    // sorted arrival order is maintained by appending.
    arrival_order_.push_back(spec.id);
    // The job count grew: re-derive the arena bounds.  They grow
    // geometrically, so most injections find room already.
    reserveRunState();
    debugCaptureCapacities();
}

void
Soc::reserveJobs(std::size_t n)
{
    jobs_.reserve(n);
    hot_.reserve(n);
    arrival_order_.reserve(n);
    waiting_ids_.reserve(n);
    waiting_pos_.reserve(n);
    running_ids_.reserve(n);
    results_.reserve(n);
    debugCaptureCapacities();
}

void
Soc::finishRun()
{
    debugCheckNoRealloc();
    stats_.cyclesSimulated = now_;
    stats_.memTraffic = mem_->traffic();
    stats_.l2Bytes = 0;
    for (const auto &j : jobs_)
        stats_.l2Bytes += j.l2BytesMoved;
    stats_.dramBusyFraction =
        now_ > 0 ? dram_busy_cycles_ / static_cast<double>(now_) : 0.0;
}

void
Soc::run()
{
    beginRun();
    advanceTo(kNoHorizon);
    finishRun();
}

} // namespace moca::sim
