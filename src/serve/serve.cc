#include "serve/serve.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <vector>

#include "cluster/parallel.h"
#include "common/log.h"
#include "common/walltime.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "obs/capture.h"
#include "sim/soc.h"

namespace moca::serve {

namespace {

/**
 * Front-end event kinds, in the order they are processed at a tied
 * cycle: capacity changes first (so same-cycle placements see the
 * new world), then timeouts (a freed retry budget may matter to a
 * same-cycle issue), then issues.  The fixed rank plus a scheduling
 * sequence number makes the queue order — and with it the whole run
 * — deterministic.
 */
enum class EvKind : int
{
    Fail = 0,
    Recover = 1,
    Timeout = 2,
    Issue = 3,
};

struct Event
{
    Cycles at = 0;
    EvKind kind = EvKind::Issue;
    std::uint64_t seq = 0;
    int req = -1;            ///< Request id (Issue/Timeout).
    int slot = -1;           ///< Slot index (Recover).
    std::uint64_t token = 0; ///< Attempt token (Timeout staleness).
};

struct EventLater
{
    bool
    operator()(const Event &x, const Event &y) const
    {
        if (x.at != y.at)
            return x.at > y.at;
        if (x.kind != y.kind)
            return static_cast<int>(x.kind) >
                static_cast<int>(y.kind);
        return x.seq > y.seq;
    }
};

/** exp::isolatedLatency through a per-model-id table (0: not asked
 *  yet), for callers that ask once per request: the oracle's own memo
 *  hashes the whole configuration and locks on every lookup. */
Cycles
memoIsolated(std::vector<Cycles> &memo, dnn::ModelId id, int num_tiles,
             const sim::SocConfig &cfg)
{
    const auto m = static_cast<std::size_t>(id);
    if (m >= memo.size())
        memo.resize(m + 1, 0);
    if (memo[m] == 0)
        memo[m] = exp::isolatedLatency(id, num_tiles, cfg);
    return memo[m];
}

/** What a slot's SoC incarnations add up to, folded in boot order. */
struct SlotTotals
{
    std::vector<sim::JobResult> results;
    std::vector<sim::TraceEvent> events; ///< Under capture only.
    obs::Timeseries series;              ///< Under capture only.
    std::uint64_t steps = 0;
    double busyCycles = 0.0; ///< Sum of dramBusyFraction x cycles.
    Cycles cycles = 0;

    /** Finish `soc`'s run, booted at front-end cycle `booted`, and
     *  add what it produced over a span ending at `end`. */
    void fold(sim::Soc &soc, bool capture, Cycles booted, Cycles end)
    {
        soc.finishRun();
        results.insert(results.end(), soc.results().begin(),
                       soc.results().end());
        steps += soc.stats().quanta;
        busyCycles += soc.stats().dramBusyFraction *
            static_cast<double>(soc.stats().cyclesSimulated);
        cycles += end;
        if (capture) {
            // Every incarnation's events carry the slot's socId; the
            // exporter merges them onto one slot track.
            const auto &ev = soc.trace().events();
            events.insert(events.end(), ev.begin(), ev.end());
            // A rebooted SoC's clock starts at 0 and samples the idle
            // gap up to its first placement: keep only the rows from
            // its boot on, so the slot's series stays increasing.
            if (const obs::Sampler *sampler = soc.sampler()) {
                series.columns = sampler->series().columns;
                for (const auto &row : sampler->series().rows)
                    if (row.at >= booted)
                        series.rows.push_back(row);
            }
        }
    }
};

/** One fleet slot: its live SoC incarnation, plus the totals of the
 *  incarnations a failure retired (a reboot folds the dead SoC into
 *  `retired` and frees it, so memory is bounded by the live fleet). */
struct Slot
{
    /** Frozen in the engine with its queue lost; else Up (accepting
     *  placements). */
    bool failed = false;
    // The policy is declared first so the SoC referencing it dies
    // first.
    std::unique_ptr<sim::Policy> policy;
    std::unique_ptr<sim::Soc> soc;
    int boots = 0;
    Cycles bootedAt = 0; ///< Front-end cycle the live SoC booted at.
    Cycles failedAt = 0; ///< Front-end cycle of the latest failure.
    SlotTotals retired;
    /** Live incarnation: dense job id -> request id. */
    std::vector<int> jobReq;
    /** Live incarnation: harvested-results cursor. */
    std::size_t seen = 0;
    int placed = 0;
    double outstandingMacs = 0.0;

    sim::Soc &live() { return *soc; }
    const sim::Soc &live() const { return *soc; }
    int incarnation() const { return boots - 1; }

    /** Where the live incarnation's span ends: its clock, or the
     *  failure cycle when it failed with jobs unfinished (its clock
     *  then stops at its last step boundary, short of the failure). */
    Cycles spanEnd() const
    {
        return failed && !soc->done() ? failedAt : soc->now();
    }
};

/** Front-end progress of one request. */
struct ReqProgress
{
    bool issued = false;
    Cycles firstIssue = 0;
    int retriesUsed = 0;
    int requeues = 0; ///< Failure re-placements consumed.
    std::uint64_t token = 0; ///< Bumped per (re-)issue decision.

    /** Current in-flight attempt, valid only while inFlight. */
    bool inFlight = false;
    int slot = -1;
    int incarnation = -1;
    int job = -1;

    bool resolved = false;
    bool success = false;
};

/**
 * The fleet driver behind both runServe (closed-loop clients) and
 * cluster::runCluster (a fixed-arrival task stream).  It owns the only
 * code that builds the fleet, snapshots SocLoad, harvests
 * completions, records PDES epoch spans, and aggregates the
 * ClusterResult.  For a stream whose dispatcher reads no SoC it is
 * also the StreamReplay the engine walks (cluster/parallel.h).
 */
class ServeDriver : private cluster::StreamReplay
{
  public:
    /**
     * @param slot_cfgs per-slot SoC configurations (size = fleet).
     * @param stream fixed-arrival request stream sorted by arrival, or
     *        null for the closed-loop client pool of cfg.clients.
     */
    ServeDriver(const ServeConfig &cfg,
                std::vector<sim::SocConfig> slot_cfgs,
                const std::vector<cluster::ClusterTask> *stream);
    ServeResult run();

  private:
    const ServeConfig &cfg_;
    std::vector<sim::SocConfig> slotCfgs_;
    Cycles hardCap_ = 0;

    std::unique_ptr<ClientPool> pool_; ///< Closed loop only.
    std::unique_ptr<AdmissionPolicy> admission_;
    std::unique_ptr<cluster::Dispatcher> dispatcher_;
    FailureInjector injector_;

    /** The request population (attributes + per-attempt timeout):
     *  the client pool's, or the fixed-arrival stream's. */
    std::vector<cluster::ClusterTask> reqTasks_;
    std::vector<Cycles> reqTimeout_;
    std::vector<ReqProgress> progress_;

    std::vector<Slot> slots_;
    /** isoLatency per slot and model id; 0 until first asked. */
    std::vector<std::vector<Cycles>> isoMemo_;
    std::unique_ptr<cluster::ParallelEngine> engine_;
    /** A fixed-arrival stream whose dispatcher reads no SoC: arrivals
     *  are placed without a barrier and the drain replays them. */
    bool replay_ = false;

    std::priority_queue<Event, std::vector<Event>, EventLater>
        queue_;
    std::uint64_t nextSeq_ = 0;

    Cycles now_ = 0;
    std::uint64_t resolvedCount_ = 0;

    int upCount_ = 0;
    Cycles lastUpChange_ = 0;
    double upIntegral_ = 0.0;

    /** Coordinator wall-clock (profile mode; see finalize()). */
    WallTimer coordTimer_;
    double dispatchSec_ = 0.0;

    ServeResult res_;

    // Response-based fleet samples (client-observed only).
    std::vector<double> respLatency_, respNormLatency_;
    std::vector<double> clientLatency_;
    std::uint64_t respMet_ = 0, respHigh_ = 0, respHighMet_ = 0;

    void push(Cycles at, EvKind kind, int req = -1, int slot = -1,
              std::uint64_t token = 0)
    {
        queue_.push(Event{at, kind, nextSeq_++, req, slot, token});
    }

    void noteUpChange(int delta)
    {
        upIntegral_ += static_cast<double>(now_ - lastUpChange_) *
            static_cast<double>(upCount_);
        lastUpChange_ = now_;
        upCount_ += delta;
    }

    /** Record a front-end event into the capture bag (no-op when
     *  capture is off; observational only). */
    void captureEvent(sim::TraceEventKind kind, int id)
    {
        if (cfg_.capture)
            cfg_.capture->frontend.record(now_, kind, id);
    }

    /** Boot a fresh SoC (and policy instance) into a slot; the slot
     *  index becomes the SoC's trace/telemetry identity. */
    void bootSoc(std::size_t slot_idx);

    /** Full-SoC isolated latency of `id` on slot `slot_idx`'s
     *  hardware: the normalization of every latency metric.  Asked
     *  once per response and per job, so the driver keeps its own
     *  table in front of the oracle's shared memo. */
    Cycles isoLatency(std::size_t slot_idx, dnn::ModelId id)
    {
        const sim::SocConfig &c = slotCfgs_[slot_idx];
        return memoIsolated(isoMemo_[slot_idx], id, c.numTiles, c);
    }

    Cycles chunkTarget(Cycles limit) const;
    /** Jump the control clock over the control horizons before
     *  `limit` at which no SoC would step (see run()). */
    void skipStalls(Cycles limit);
    Cycles deferDelay() const
    {
        // Deferred/capacity-held requests re-try at the control
        // cadence; with an unbounded quantum the scheduler period
        // stands in as the polling interval.
        return cfg_.controlQuantum > 0 ? cfg_.controlQuantum
                                       : slotCfgs_.front().schedPeriod;
    }
    void advanceTo(Cycles target);
    void harvest();

    /** Request `req` as job `id` of a SoC, arriving at `dispatch`. */
    sim::JobSpec jobSpec(int req, int id, Cycles dispatch) const;

    // StreamReplay, over the stream's arrival cycles and each slot's
    // jobReq (request ids are stream indices).
    std::size_t arrivals() const override { return reqTasks_.size(); }
    Cycles arrival(std::size_t k) const override
    {
        return reqTasks_[k].arrival;
    }
    const std::vector<int> &placements(std::size_t soc) const override
    {
        return slots_[soc].jobReq;
    }
    void inject(std::size_t soc, std::size_t n) override;

    /** Record one logical PDES epoch (a stall when nothing stepped)
     *  into the capture bag. */
    void captureEpoch(Cycles begin, Cycles end, std::uint64_t stepped)
    {
        cfg_.capture->epochs.push_back(
            {begin, end, stepped, stepped == 0});
    }

    std::vector<cluster::SocLoad> upLoads() const;
    void handleIssue(int req);
    void placeRequest(int req, const std::vector<cluster::SocLoad> &up);
    void failAttempt(int req);
    void resolveRequest(int req, bool success, Cycles finish);
    void handleTimeout(int req, std::uint64_t token);
    void handleFail();
    void handleRecover(int slot);

    void finalize();
};

ServeDriver::ServeDriver(const ServeConfig &cfg,
                         std::vector<sim::SocConfig> slot_cfgs,
                         const std::vector<cluster::ClusterTask> *stream)
    : cfg_(cfg), slotCfgs_(std::move(slot_cfgs)),
      injector_(cfg.failures)
{
    const int n = static_cast<int>(slotCfgs_.size());
    for (const sim::SocConfig &c : slotCfgs_)
        hardCap_ = std::max(hardCap_, c.maxCycles);

    admission_ = AdmissionRegistry::instance().make(cfg_.admission);
    dispatcher_ = cluster::DispatcherRegistry::instance().make(
        cfg_.dispatcher, n, cfg_.dispatcherSeed);
    // A stream always admits and never fails or times out (runCluster),
    // so with a dispatcher that reads no SoC no decision needs the
    // fleet advanced to an arrival.
    replay_ = stream != nullptr && !dispatcher_->readsLoad();

    // The request population: pre-generated, policy-independent.
    if (stream != nullptr) {
        // Request ids are stream indices.  Each issue schedules the
        // next one (handleIssue), so equal arrivals keep stream order.
        reqTasks_ = *stream;
        reqTimeout_.assign(reqTasks_.size(), 0);
        if (!reqTasks_.empty())
            push(reqTasks_.front().arrival, EvKind::Issue, 0);
    } else {
        // Workload calibration (SLA targets, think time) uses the
        // *single-tile* isolated latency, while metric normalization
        // uses the full-SoC one (isoLatency).
        const sim::SocConfig &cal = slotCfgs_.front();
        std::vector<Cycles> single_tile;
        pool_ = std::make_unique<ClientPool>(
            cfg_.clients, [&](dnn::ModelId id) {
                return memoIsolated(single_tile, id, 1, cal);
            });
        reqTasks_.reserve(
            static_cast<std::size_t>(pool_->totalRequests()));
        reqTimeout_.reserve(reqTasks_.capacity());
        for (int i = 0; i < pool_->totalRequests(); ++i) {
            reqTasks_.push_back(pool_->request(i).task);
            reqTimeout_.push_back(pool_->request(i).timeout);
        }
    }
    isoMemo_.resize(slotCfgs_.size());
    progress_.resize(reqTasks_.size());
    respLatency_.reserve(reqTasks_.size());
    respNormLatency_.reserve(reqTasks_.size());
    clientLatency_.reserve(reqTasks_.size());

    // The fleet: every slot starts Up with one incarnation.
    slots_.resize(slotCfgs_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i)
        bootSoc(i);
    upCount_ = n;
    if (cfg_.capture)
        cfg_.capture->frontend.enable();

    // Completion *reactions* must run on the coordinator, so the
    // engine gets no per-advance callback; harvest() walks the slots
    // in index order after every epoch instead.
    std::vector<sim::Soc *> fleet;
    fleet.reserve(slots_.size());
    for (Slot &slot : slots_)
        fleet.push_back(&slot.live());
    engine_ = std::make_unique<cluster::ParallelEngine>(
        std::move(fleet), cfg_.jobs);

    // Each client issues its first request after one think time.
    if (pool_)
        for (int c = 0; c < pool_->numClients(); ++c) {
            const int req = c * cfg_.clients.requestsPerClient;
            push(pool_->request(req).think, EvKind::Issue, req);
        }
    if (injector_.enabled())
        push(injector_.firstFailure(), EvKind::Fail);
}

void
ServeDriver::bootSoc(std::size_t slot_idx)
{
    Slot &slot = slots_[slot_idx];
    if (slot.soc) {
        // Retire the previous incarnation: keep what it produced,
        // free the simulator (before the policy it references).
        slot.retired.fold(*slot.soc, cfg_.capture != nullptr,
                          slot.bootedAt, slot.spanEnd());
        slot.soc.reset();
    }
    sim::SocConfig soc_cfg = slotCfgs_[slot_idx];
    soc_cfg.socId = static_cast<int>(slot_idx);
    slot.policy =
        exp::PolicyRegistry::instance().make(cfg_.policy, soc_cfg);
    slot.soc = std::make_unique<sim::Soc>(soc_cfg, *slot.policy);
    slot.boots++;
    slot.bootedAt = now_;
    if (cfg_.capture)
        slot.soc->trace().enable();
    slot.soc->beginRun();
    slot.jobReq.clear();
    slot.seen = 0;
}

Cycles
ServeDriver::chunkTarget(Cycles limit) const
{
    if (cfg_.controlQuantum == 0)
        return limit;
    const Cycles headroom = sim::kNoHorizon - now_;
    if (cfg_.controlQuantum >= headroom)
        return limit;
    return std::min(limit, now_ + cfg_.controlQuantum);
}

void
ServeDriver::skipStalls(Cycles limit)
{
    // Every control horizon before the first one some SoC is behind
    // (and before `limit`) is a stall: nothing steps, so nothing
    // completes and harvest() reacts to nothing.  Count them and emit
    // their spans without visiting them one by one.
    const Cycles quantum = cfg_.controlQuantum;
    const Cycles stop = std::min(limit, engine_->firstStepHorizon());
    if (quantum == 0 || stop == sim::kNoHorizon || stop <= now_)
        return;
    const Cycles stalls = (stop - now_ - 1) / quantum;
    if (cfg_.capture)
        for (Cycles k = 0; k < stalls; ++k)
            captureEpoch(now_ + k * quantum, now_ + (k + 1) * quantum, 0);
    engine_->skipStalls(stalls);
    now_ += stalls * quantum;
}

void
ServeDriver::advanceTo(Cycles target)
{
    const Cycles begin = now_;
    const cluster::EpochStats before = engine_->stats();
    const std::vector<std::uint32_t> *replayed = nullptr;
    if (replay_) {
        // Only the drain (target kNoHorizon) advances a replayed
        // stream: every SoC walks the arrivals it skipped, then
        // drains.  Its jobs are sized here, so the workers allocate no
        // job storage.
        for (Slot &slot : slots_)
            slot.live().reserveJobs(slot.jobReq.size());
        replayed = &engine_->replay(*this);
        replay_ = false;
    } else {
        engine_->advanceFleet(target);
    }
    if (target == sim::kNoHorizon) {
        // Unbounded drain: the front-end clock lands on the latest
        // live-SoC clock, so post-drain reactions get sane cycles.
        Cycles latest = now_;
        for (Slot &slot : slots_)
            latest = std::max(latest, slot.live().now());
        now_ = latest;
    } else {
        now_ = target;
    }
    if (cfg_.capture) {
        // Epoch/stall spans on the front-end clock, so the exporter
        // can draw the PDES timeline: a replay's logical epochs span
        // arrival to arrival (the barrier path's clock starts at 0),
        // then the drain.
        if (replayed != nullptr) {
            Cycles from = 0;
            for (std::size_t k = 0; k < reqTasks_.size(); ++k) {
                captureEpoch(from, reqTasks_[k].arrival, (*replayed)[k]);
                from = reqTasks_[k].arrival;
            }
            captureEpoch(from, now_, replayed->back());
        } else {
            captureEpoch(begin, now_,
                         engine_->stats().socsStepped -
                             before.socsStepped);
        }
    }
    harvest();
}

sim::JobSpec
ServeDriver::jobSpec(int req, int id, Cycles dispatch) const
{
    const cluster::ClusterTask &task =
        reqTasks_[static_cast<std::size_t>(req)];
    sim::JobSpec spec;
    spec.id = id;
    spec.model = &dnn::getModel(task.model);
    spec.dispatch = dispatch;
    spec.priority = task.priority;
    spec.slaLatency = task.slaLatency;
    return spec;
}

void
ServeDriver::inject(std::size_t soc, std::size_t n)
{
    Slot &slot = slots_[soc];
    const int req = slot.jobReq[n];
    slot.live().injectJob(jobSpec(req, static_cast<int>(n),
                                  arrival(static_cast<std::size_t>(req))));
}

void
ServeDriver::harvest()
{
    // Completions are consumed in slot-index order from each slot's
    // live incarnation (retired ones produce no new results), so
    // reaction order is a pure function of fleet state — never of
    // PDES worker timing.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot &slot = slots_[i];
        const auto &results = slot.live().results();
        for (std::size_t r = slot.seen; r < results.size(); ++r) {
            const sim::JobResult &jr = results[r];
            slot.outstandingMacs -=
                static_cast<double>(jr.spec.model->totalMacs());
            const int req =
                slot.jobReq[static_cast<std::size_t>(jr.spec.id)];
            ReqProgress &p =
                progress_[static_cast<std::size_t>(req)];
            const bool current = p.inFlight && !p.resolved &&
                p.slot == static_cast<int>(i) &&
                p.incarnation == slot.incarnation() &&
                p.job == jr.spec.id;
            if (!current) {
                // A completion nobody is waiting for: the client
                // timed out (or the attempt was requeued) before the
                // fleet delivered.  Wasted work, not goodput.
                res_.orphans++;
                continue;
            }
            p.inFlight = false;
            res_.responses++;
            const auto latency = static_cast<double>(jr.latency());
            respLatency_.push_back(latency);
            respNormLatency_.push_back(
                latency /
                static_cast<double>(isoLatency(
                    i, reqTasks_[static_cast<std::size_t>(req)]
                           .model)));
            if (jr.slaMet())
                ++respMet_;
            if (workload::priorityGroup(jr.spec.priority) ==
                workload::PriorityGroup::High) {
                ++respHigh_;
                if (jr.slaMet())
                    ++respHighMet_;
            }
            clientLatency_.push_back(static_cast<double>(
                jr.finish - p.firstIssue));
            resolveRequest(req, true, jr.finish);
        }
        slot.seen = results.size();
    }
}

std::vector<cluster::SocLoad>
ServeDriver::upLoads() const
{
    std::vector<cluster::SocLoad> loads;
    loads.reserve(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot &slot = slots_[i];
        if (slot.failed)
            continue;
        const sim::Soc &soc = slot.live();
        cluster::SocLoad l;
        l.socIdx = static_cast<int>(i);
        l.waiting = static_cast<int>(soc.waitingCount());
        l.running = static_cast<int>(soc.runningCount());
        l.freeTiles = soc.freeTiles();
        l.numTiles = soc.config().numTiles;
        l.tasksAssigned = slot.placed;
        l.outstandingMacs = slot.outstandingMacs;
        loads.push_back(l);
    }
    return loads;
}

void
ServeDriver::handleIssue(int req)
{
    ReqProgress &p = progress_[static_cast<std::size_t>(req)];
    if (p.resolved)
        return;
    if (!p.issued) {
        p.issued = true;
        p.firstIssue = now_;
        res_.requests++;
        // A fixed-arrival stream schedules its next arrival here; a
        // client issues its next request once this one resolves.
        if (!pool_ &&
            static_cast<std::size_t>(req) + 1 < reqTasks_.size())
            push(reqTasks_[static_cast<std::size_t>(req) + 1].arrival,
                 EvKind::Issue, req + 1);
    }

    const std::vector<cluster::SocLoad> up = upLoads();
    if (up.empty()) {
        // No capacity at all (everything failed): hold the request at
        // the front door and re-try at the next control tick.
        res_.deferrals++;
        captureEvent(sim::TraceEventKind::AdmissionDefer, req);
        push(now_ + deferDelay(), EvKind::Issue, req);
        return;
    }

    switch (admission_->decide(
        reqTasks_[static_cast<std::size_t>(req)], now_, up)) {
      case AdmissionDecision::Admit:
        placeRequest(req, up);
        break;
      case AdmissionDecision::Shed:
        res_.shed++;
        captureEvent(sim::TraceEventKind::AdmissionShed, req);
        failAttempt(req);
        break;
      case AdmissionDecision::Defer:
        res_.deferrals++;
        captureEvent(sim::TraceEventKind::AdmissionDefer, req);
        push(now_ + deferDelay(), EvKind::Issue, req);
        break;
    }
}

void
ServeDriver::placeRequest(int req,
                          const std::vector<cluster::SocLoad> &up)
{
    ReqProgress &p = progress_[static_cast<std::size_t>(req)];
    cluster::ClusterTask task =
        reqTasks_[static_cast<std::size_t>(req)];
    task.arrival = now_;

    const int k = dispatcher_->place(task, up);
    if (k < 0 || k >= static_cast<int>(up.size()))
        fatal("dispatcher '%s' placed request %d on Up slot %d of "
              "%zu", cfg_.dispatcher.c_str(), req, k, up.size());
    const auto slot_idx = static_cast<std::size_t>(
        up[static_cast<std::size_t>(k)].socIdx);
    Slot &slot = slots_[slot_idx];

    // A live SoC holds exactly its slot's placements.  A replayed
    // stream injects them in the drain epoch instead.
    const sim::JobSpec spec =
        jobSpec(req, static_cast<int>(slot.jobReq.size()), now_);
    if (!replay_)
        slot.live().injectJob(spec);
    slot.placed++;
    slot.outstandingMacs +=
        static_cast<double>(spec.model->totalMacs());
    slot.jobReq.push_back(req);

    res_.attempts++;
    p.token++;
    p.inFlight = true;
    p.slot = static_cast<int>(slot_idx);
    p.incarnation = slot.incarnation();
    p.job = spec.id;

    const Cycles timeout =
        reqTimeout_[static_cast<std::size_t>(req)];
    if (timeout > 0)
        push(now_ + timeout, EvKind::Timeout, req, -1, p.token);
}

void
ServeDriver::failAttempt(int req)
{
    ReqProgress &p = progress_[static_cast<std::size_t>(req)];
    p.token++; // Invalidate any pending timeout of the old attempt.
    p.inFlight = false;
    if (pool_ && p.retriesUsed < cfg_.clients.maxRetries) {
        p.retriesUsed++;
        res_.retries++;
        push(now_ + pool_->backoff(p.retriesUsed), EvKind::Issue,
             req);
        return;
    }
    resolveRequest(req, false, now_);
}

void
ServeDriver::resolveRequest(int req, bool success, Cycles finish)
{
    ReqProgress &p = progress_[static_cast<std::size_t>(req)];
    if (p.resolved)
        panic("request %d resolved twice", req);
    p.resolved = true;
    p.success = success;
    p.token++;
    resolvedCount_++;
    if (!success)
        res_.giveUps++;
    res_.endCycle = std::max(res_.endCycle, finish);
    // One request in flight per client: its next one thinks from the
    // moment the client observed this response; reactions discovered
    // at an epoch boundary never schedule into the past.
    if (pool_ &&
        pool_->request(req).seq + 1 < cfg_.clients.requestsPerClient)
        push(std::max(now_, finish) + pool_->request(req + 1).think,
             EvKind::Issue, req + 1);
}

void
ServeDriver::handleTimeout(int req, std::uint64_t token)
{
    ReqProgress &p = progress_[static_cast<std::size_t>(req)];
    if (p.resolved || p.token != token)
        return; // Stale: the attempt resolved or was superseded.
    res_.timeouts++;
    // The in-flight job keeps running (there is no cancellation in
    // the fleet) — if it ever completes, it is an orphan.
    failAttempt(req);
}

void
ServeDriver::handleFail()
{
    // Victims come from the Up slots, chosen by the injector's
    // dedicated stream; the last Up slot never fails.
    std::vector<int> candidates;
    for (std::size_t i = 0; i < slots_.size(); ++i)
        if (!slots_[i].failed)
            candidates.push_back(static_cast<int>(i));
    const FailureInjector::FailPlan plan = injector_.plan(
        now_, static_cast<int>(candidates.size()));
    push(plan.nextFailAt, EvKind::Fail);
    if (plan.victim < 0)
        return;

    const auto idx = static_cast<std::size_t>(
        candidates[static_cast<std::size_t>(plan.victim)]);
    Slot &slot = slots_[idx];
    // The SoC stepped no further than its last step boundary (its last
    // completion, or the start of a step parked across the failure);
    // its series runs on in that state up to the failure.
    slot.soc->sampleIdleUntil(now_);
    slot.failedAt = now_;
    res_.failEvents++;
    captureEvent(sim::TraceEventKind::SocFail,
                 static_cast<int>(idx));
    noteUpChange(-1);
    slot.failed = true;
    engine_->setActive(idx, false);
    push(plan.recoverAt, EvKind::Recover, -1,
         static_cast<int>(idx));

    // Every job the frozen SoC had not completed is gone with its
    // queue; what happens to the *requests* behind the current
    // attempts is the configured in-flight policy.
    const sim::Soc &soc = slot.live();
    res_.lostJobs += soc.jobs().size() - soc.results().size();
    slot.outstandingMacs = 0.0;
    const auto &job_req = slot.jobReq;
    for (std::size_t j = 0; j < job_req.size(); ++j) {
        ReqProgress &p =
            progress_[static_cast<std::size_t>(job_req[j])];
        if (!(p.inFlight && !p.resolved &&
              p.slot == static_cast<int>(idx) &&
              p.incarnation == slot.incarnation() &&
              p.job == static_cast<int>(j)))
            continue;
        p.inFlight = false;
        switch (cfg_.failures.inflight) {
          case InflightPolicy::Requeue:
            // A free re-placement: the machine died, the client did
            // not time out, so the *timeout* retry budget stays
            // untouched — but the re-placements have their own
            // budget (the same maxRetries knob).  Without a bound, a
            // job longer than the fleet's typical failure gap
            // requeues forever: a deterministic retry storm.  Past
            // the budget the loss falls through to the normal
            // failed-attempt path.
            if (p.requeues < cfg_.clients.maxRetries) {
                p.requeues++;
                res_.requeued++;
                p.token++;
                push(now_, EvKind::Issue, job_req[j]);
            } else {
                failAttempt(job_req[j]);
            }
            break;
          case InflightPolicy::Drop:
            // The client discovers the loss via its timeout; with
            // timeouts disabled nobody ever would, so the attempt
            // fails (and retries/burns budget) immediately.
            if (reqTimeout_[static_cast<std::size_t>(
                    job_req[j])] == 0)
                failAttempt(job_req[j]);
            break;
        }
    }
}

void
ServeDriver::handleRecover(int slot_idx)
{
    Slot &slot = slots_[static_cast<std::size_t>(slot_idx)];
    if (!slot.failed)
        panic("recovering slot %d that is not Failed", slot_idx);
    res_.recoverEvents++;
    captureEvent(sim::TraceEventKind::SocRecover, slot_idx);
    // Reboot: a fresh SoC (and fresh policy state) replaces the
    // failed one, which bootSoc retires.  Its clock starts at 0 with
    // nothing queued, so it is done() and makes no epoch run until
    // placed on.
    bootSoc(static_cast<std::size_t>(slot_idx));
    engine_->replaceSoc(static_cast<std::size_t>(slot_idx),
                        &slot.live());
    engine_->setActive(static_cast<std::size_t>(slot_idx), true);
    slot.failed = false;
    noteUpChange(+1);
}

ServeResult
ServeDriver::run()
{
    const auto total =
        static_cast<std::uint64_t>(reqTasks_.size());
    while (resolvedCount_ < total) {
        if (now_ > hardCap_)
            fatal("serving loop passed %llu cycles with %llu of "
                  "%llu requests unresolved (deadlock?)",
                  static_cast<unsigned long long>(hardCap_),
                  static_cast<unsigned long long>(
                      total - resolvedCount_),
                  static_cast<unsigned long long>(total));
        if (queue_.empty()) {
            // Nothing scheduled: only in-flight fleet work remains.
            skipStalls(sim::kNoHorizon);
            advanceTo(chunkTarget(sim::kNoHorizon));
            continue;
        }
        const Event ev = queue_.top();
        if (pool_ && ev.at > now_) {
            skipStalls(ev.at);
            advanceTo(chunkTarget(ev.at));
            continue; // Harvest may have scheduled earlier events.
        }
        queue_.pop();
        // A fixed-arrival stream reacts to nothing, so every arrival
        // is one epoch barrier; a tied arrival is a horizon stall.
        // When no decision reads a SoC, the barrier waits for the
        // drain, which replays every arrival in one epoch.
        if (!pool_) {
            if (replay_)
                now_ = ev.at;
            else
                advanceTo(ev.at);
        }
        if (cfg_.profile)
            coordTimer_.restart();
        switch (ev.kind) {
          case EvKind::Fail: handleFail(); break;
          case EvKind::Recover: handleRecover(ev.slot); break;
          case EvKind::Timeout: handleTimeout(ev.req, ev.token); break;
          case EvKind::Issue: handleIssue(ev.req); break;
        }
        if (cfg_.profile)
            dispatchSec_ += coordTimer_.restart();
    }

    // Drain the orphans; failed slots stay frozen.  Leftover control
    // events are dead — every request is resolved.  An idle fleet
    // needs no drain epoch.
    if (engine_->wouldStep(sim::kNoHorizon))
        advanceTo(sim::kNoHorizon);
    finalize();
    return res_;
}

void
ServeDriver::finalize()
{
    cluster::ClusterResult &out = res_.cluster;
    out.dispatcher = cfg_.dispatcher;
    out.policy = cfg_.policy;
    out.numSocs = static_cast<int>(slots_.size());
    out.numTasks = res_.attempts;
    out.epochs = engine_->stats().epochs;
    out.horizonStalls = engine_->stats().horizonStalls;
    out.meanSocsStepped = engine_->stats().meanSocsStepped();
    if (cfg_.profile) {
        engine_->phaseTotals(out.phases.shardAdvanceSec,
                             out.phases.barrierWaitSec);
        out.phases.dispatchSec = dispatchSec_;
        out.phases.barriers = engine_->stats().barriers;
    }
    out.perSoc.resize(slots_.size());

    std::uint64_t completed = 0;
    bool sampled = false;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot &slot = slots_[i];
        cluster::SocShare &share = out.perSoc[i];
        share.tasks = slot.placed;

        // Aggregate the slot across its incarnations: every
        // completion ran on real fleet capacity, orphan or not.
        SlotTotals &all = slot.retired;
        all.fold(slot.live(), cfg_.capture != nullptr, slot.bootedAt,
                 slot.spanEnd());
        if (cfg_.capture)
            cfg_.capture->socEvents.insert(
                cfg_.capture->socEvents.end(), all.events.begin(),
                all.events.end());
        share.simSteps = all.steps;
        sampled = sampled || slot.live().sampler() != nullptr;
        completed += all.results.size();
        share.metrics = metrics::computeMetrics(
            all.results,
            [&](dnn::ModelId id) { return isoLatency(i, id); });
        share.dramBusyFraction = all.cycles > 0
            ? all.busyCycles / static_cast<double>(all.cycles)
            : 0.0;
        for (const auto &jr : all.results)
            share.makespan = std::max(share.makespan, jr.finish);
        out.simSteps += share.simSteps;
        out.stp += share.metrics.stp;
        out.makespan = std::max(out.makespan, share.makespan);
    }
    // Sampled series stay socId-indexed: an unsampled slot of a mixed
    // fleet contributes an empty series.
    if (cfg_.capture && sampled)
        for (Slot &slot : slots_)
            cfg_.capture->socSeries.push_back(
                std::move(slot.retired.series));
    if (completed + res_.lostJobs != res_.attempts)
        panic("fleet lost tasks: %llu placed, %llu completed, %llu "
              "lost to SoC failures",
              static_cast<unsigned long long>(res_.attempts),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(res_.lostJobs));

    // Client-facing fleet aggregates: responses only.
    out.slaRate = res_.responses > 0
        ? static_cast<double>(respMet_) /
            static_cast<double>(res_.responses)
        : 0.0;
    out.slaRateHigh = respHigh_ > 0
        ? static_cast<double>(respHighMet_) /
            static_cast<double>(respHigh_)
        : 0.0;
    out.latency = percentileSummary(respLatency_);
    out.normLatency = percentileSummary(respNormLatency_);
    if (out.makespan > 0)
        out.goodput = static_cast<double>(respMet_) * 1e9 /
            static_cast<double>(out.makespan);

    const std::uint64_t verdicts = res_.attempts + res_.shed;
    if (verdicts > 0)
        out.shedRate = static_cast<double>(res_.shed) /
            static_cast<double>(verdicts);
    if (res_.requests > 0) {
        out.retryRate = static_cast<double>(res_.retries) /
            static_cast<double>(res_.requests);
        out.timeoutRate = static_cast<double>(res_.timeouts) /
            static_cast<double>(res_.requests);
        res_.successRate = static_cast<double>(res_.responses) /
            static_cast<double>(res_.requests);
    }

    double mean_tasks = 0.0;
    for (const Slot &slot : slots_)
        mean_tasks += static_cast<double>(slot.placed);
    mean_tasks /= static_cast<double>(slots_.size());
    if (mean_tasks > 0.0) {
        double var = 0.0;
        for (const Slot &slot : slots_) {
            const double d =
                static_cast<double>(slot.placed) - mean_tasks;
            var += d * d;
        }
        out.balanceCv =
            std::sqrt(var / static_cast<double>(slots_.size())) /
            mean_tasks;
    }

    res_.clientLatency = percentileSummary(clientLatency_);
    if (res_.endCycle > 0) {
        upIntegral_ +=
            static_cast<double>(
                std::max(res_.endCycle, lastUpChange_) -
                lastUpChange_) *
            static_cast<double>(upCount_);
        res_.meanUpSocs =
            upIntegral_ / static_cast<double>(res_.endCycle);
    }
}

} // anonymous namespace

ServeResult
runServe(const ServeConfig &cfg)
{
    if (cfg.numSocs < 1)
        fatal("serving fleet needs at least one SoC (got %d)",
              cfg.numSocs);
    ServeDriver driver(
        cfg,
        std::vector<sim::SocConfig>(
            static_cast<std::size_t>(cfg.numSocs), cfg.soc),
        nullptr);
    return driver.run();
}

} // namespace moca::serve

namespace moca::cluster {

ClusterConfig
ClusterConfig::homogeneous(int n, const sim::SocConfig &soc)
{
    if (n < 1)
        fatal("cluster needs at least one SoC (got %d)", n);
    ClusterConfig cfg;
    cfg.socs.assign(static_cast<std::size_t>(n), soc);
    return cfg;
}

ClusterResult
runCluster(const ClusterConfig &cfg,
           const std::vector<ClusterTask> &tasks)
{
    if (cfg.socs.empty())
        fatal("cluster needs at least one SoC");
    for (std::size_t i = 1; i < tasks.size(); ++i)
        if (tasks[i].arrival < tasks[i - 1].arrival)
            fatal("cluster task stream must be sorted by arrival "
                  "(task %d at %llu after task %d at %llu)",
                  tasks[i].id,
                  static_cast<unsigned long long>(tasks[i].arrival),
                  tasks[i - 1].id,
                  static_cast<unsigned long long>(
                      tasks[i - 1].arrival));

    // Always-admit, no failures, no timeouts, and an unbounded
    // control quantum: the fleet advances exactly from one
    // arrival to the next, then drains.
    serve::ServeConfig sc;
    sc.policy = cfg.policy;
    sc.dispatcher = cfg.dispatcher;
    sc.dispatcherSeed = cfg.dispatcherSeed;
    sc.jobs = cfg.jobs;
    sc.controlQuantum = 0;
    sc.profile = cfg.profile;
    sc.capture = cfg.capture;
    serve::ServeDriver driver(sc, cfg.socs, &tasks);
    return driver.run().cluster;
}

} // namespace moca::cluster
