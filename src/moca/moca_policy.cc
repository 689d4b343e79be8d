#include "moca/moca_policy.h"

#include <algorithm>

#include "common/argparse.h"
#include "common/log.h"

namespace moca {

bool
MocaPolicyConfig::applyParam(const std::string &key,
                             const std::string &value)
{
    const std::string what = "moca:" + key;
    if (key == "slots") {
        slots = static_cast<int>(parseIntValue(what, value));
    } else if (key == "throttle") {
        enableThrottling = parseBoolValue(what, value);
    } else if (key == "pairing") {
        enableMemAwarePairing = parseBoolValue(what, value);
    } else if (key == "dynamic_score") {
        enableDynamicScore = parseBoolValue(what, value);
    } else if (key == "repartition") {
        enableComputeRepartition = parseBoolValue(what, value);
    } else if (key == "score_threshold") {
        scoreThreshold = parseDoubleValue(what, value);
    } else if (key == "sparsity_aware") {
        sparsityAwarePredictor = parseBoolValue(what, value);
    } else if (key == "repartition_benefit") {
        repartitionBenefit = parseDoubleValue(what, value);
    } else if (key == "tick") {
        const auto tick = parseIntValue(what, value);
        if (tick < 0)
            fatal("%s: tick must be >= 0 cycles", what.c_str());
        throttleTickCycles = static_cast<Cycles>(tick);
    } else if (key == "threshold") {
        if (value == "scaled")
            fixedThreshold = false;
        else if (value == "fixed")
            fixedThreshold = true;
        else
            fatal("%s=%s: expected 'scaled' or 'fixed'",
                  what.c_str(), value.c_str());
    } else {
        return false;
    }
    return true;
}

MocaPolicy::MocaPolicy(const sim::SocConfig &soc_cfg,
                       const MocaPolicyConfig &cfg)
    : cfg_(cfg),
      cm_(soc_cfg, cfg.sparsityAwarePredictor,
          runtime::ContentionTuning{cfg.throttleTickCycles,
                                    cfg.fixedThreshold}),
      scheduler_(sched::SchedulerConfig{
          cfg.scoreThreshold, cfg.enableMemAwarePairing},
          soc_cfg.dramBytesPerCycle)
{
    if (cfg_.slots < 1 || cfg_.slots > soc_cfg.numTiles)
        fatal("moca: slots must be in [1, numTiles]");
}

int
MocaPolicy::tilesPerSlot(const sim::Soc &soc) const
{
    return std::max(1, soc.config().numTiles / cfg_.slots);
}

const MocaPolicy::ModelEstimate &
MocaPolicy::modelEstimate(const dnn::Model &model, int num_tiles)
{
    const std::uint64_t key =
        (model.uid() << 16) |
        (static_cast<std::uint64_t>(num_tiles) & 0xffff);
    auto it = estimate_memo_.find(key);
    if (it == estimate_memo_.end()) {
        ModelEstimate e;
        e.time = cm_.model().estimateModel(model, num_tiles);
        e.bw = cm_.model().estimateAvgBw(model, num_tiles);
        it = estimate_memo_.emplace(key, e).first;
    }
    return it->second;
}

bool
MocaPolicy::reconfigure(sim::Soc &soc, int id)
{
    const sim::JobSpec &spec = soc.job(id).spec;
    runtime::JobSnapshot snap;
    snap.appId = id;
    snap.model = spec.model;
    snap.nextLayer = soc.jobLayer(id);
    snap.numTiles = std::max(1, soc.jobTiles(id));
    snap.userPriority = spec.priority;
    if (cfg_.enableDynamicScore) {
        const double deadline = static_cast<double>(spec.dispatch) +
            static_cast<double>(spec.slaLatency);
        snap.slackCycles = deadline - static_cast<double>(soc.now());
    } else {
        // Ablation: static priority only (slack -> infinity kills the
        // remaining/slack term).
        snap.slackCycles = 1e18;
    }

    const runtime::ContentionDecision d = cm_.onBlockBoundary(snap);
    stats_.reconfigurations++;
    if (d.contention)
        stats_.contentionDetected++;
    if (cfg_.enableThrottling)
        soc.configureThrottle(id, d.hwConfig);
    return d.contention;
}

void
MocaPolicy::reconfigureCorunners(sim::Soc &soc, int except_id)
{
    // "The MoCA hardware engine is reconfigured each time the dynamic
    // scores are updated" (Sec. III-C): once contention is detected,
    // every co-runner's allocation is refreshed so the aggregate
    // issue rate respects the DRAM bandwidth.
    for (int id : soc.runningJobs()) {
        if (id == except_id)
            continue;
        if (soc.jobState(id) == sim::JobState::Running)
            reconfigure(soc, id);
    }
}

const sched::SchedTask &
MocaPolicy::cachedTask(const sim::Soc &soc, int id, int per_slot)
{
    if (per_slot != task_cache_per_slot_) {
        task_cache_.clear();
        task_cache_per_slot_ = per_slot;
    }
    if (static_cast<std::size_t>(id) >= task_cache_.size())
        task_cache_.resize(static_cast<std::size_t>(id) + 1);
    sched::SchedTask &t = task_cache_[static_cast<std::size_t>(id)];
    if (t.id != id) {
        const sim::JobSpec &spec = soc.job(id).spec;
        const ModelEstimate &est =
            modelEstimate(*spec.model, per_slot);
        t.id = id;
        t.priority = spec.priority;
        t.dispatched = spec.dispatch;
        t.estimatedTime = est.time;
        t.estimatedAvgBw = est.bw;
    }
    return t;
}

void
MocaPolicy::ingestArrivals(const sim::Soc &soc)
{
    if (bound_soc_ != &soc || soc.arrivedCount() < arrival_cursor_) {
        // New (or restarted) simulation: drop the incremental state.
        buckets_.clear();
        bucket_index_.clear();
        arrival_cursor_ = 0;
        task_cache_.clear();
        task_cache_per_slot_ = -1;
        bound_soc_ = &soc;
    }
    const std::vector<int> &order = soc.arrivalOrder();
    const std::size_t arrived = soc.arrivedCount();
    for (; arrival_cursor_ < arrived; ++arrival_cursor_) {
        const int id = order[arrival_cursor_];
        const sim::JobSpec &spec = soc.job(id).spec;
        const std::uint64_t key = (spec.model->uid() << 8) |
            (static_cast<std::uint64_t>(spec.priority) & 0xff);
        const auto [it, fresh] = bucket_index_.try_emplace(
            key, static_cast<int>(buckets_.size()));
        if (fresh)
            buckets_.emplace_back();
        buckets_[static_cast<std::size_t>(it->second)]
            .fifo.push_back(id);
    }
}

void
MocaPolicy::admitJobs(sim::Soc &soc)
{
    const int per_slot = tilesPerSlot(soc);
    const int slots_free = soc.freeTiles() / per_slot;
    if (slots_free <= 0)
        return;
    ingestArrivals(soc);
    if (soc.waitingJobs().empty())
        return;

    // Bias the pick against the running mix: if the current
    // co-runners are mostly memory-intensive, prefer a compute-bound
    // task (and vice versa) so the co-scheduled set stays balanced.
    // Depends only on the running set and its tile counts, so it is
    // recomputed only when the running epoch moves.
    if (soc.runningEpoch() != bias_epoch_) {
        auto bias = sched::MocaScheduler::MixBias::None;
        int mem = 0, total = 0;
        for (int id : soc.runningJobs()) {
            const double bw = modelEstimate(
                *soc.job(id).spec.model,
                std::max(1, soc.jobTiles(id))).bw;
            ++total;
            if (sched::isMemIntensive(bw,
                                      soc.config().dramBytesPerCycle))
                ++mem;
        }
        if (total > 0 && 2 * mem >= total + 1)
            bias = sched::MocaScheduler::MixBias::PreferNonMem;
        else if (total > 1 && mem == 0)
            bias = sched::MocaScheduler::MixBias::PreferMem;
        bias_memo_ = bias;
        bias_epoch_ = soc.runningEpoch();
    }
    const auto bias = bias_memo_;

    // Candidate harvest: the first `slots_free` still-waiting entries
    // of each bucket cover every task the round's per-class top-k
    // selection can pick (see AdmitBucket); the selection itself then
    // applies the global (score, id) order over this small set,
    // decision-identical to scanning the full waiting backlog.
    admit_scratch_.clear();
    for (AdmitBucket &b : buckets_) {
        while (b.head < b.fifo.size() &&
               soc.jobState(b.fifo[b.head]) != sim::JobState::Waiting)
            ++b.head; // Admitted/finished: popped for good.
        int need = slots_free;
        for (std::size_t i = b.head;
             i < b.fifo.size() && need > 0; ++i) {
            const int id = b.fifo[i];
            if (soc.jobState(id) != sim::JobState::Waiting)
                continue; // Out-of-band admission hole.
            admit_scratch_.push_back(id);
            --need;
        }
    }

    const std::vector<int> group = scheduler_.selectGroupIds(
        admit_scratch_,
        [&](int id) -> const sched::SchedTask * {
            return &cachedTask(soc, id, per_slot);
        },
        soc.now(), slots_free, bias);
    for (int id : group) {
        if (soc.freeTiles() < per_slot)
            break;
        soc.startJob(id, per_slot);
        stats_.jobsAdmitted++;
        reconfigure(soc, id);
    }
}

void
MocaPolicy::maybeRepartition(sim::Soc &soc, sim::SchedEvent event)
{
    if (!cfg_.enableComputeRepartition)
        return;
    const int per_slot = tilesPerSlot(soc);
    // Bound by reference (no per-call copies): resizeJob below changes
    // neither set's membership, and the loop breaks right after its
    // one resizeJob.
    const auto &running = soc.runningJobs();
    const auto &waiting = soc.waitingJobs();
    const double migration =
        static_cast<double>(soc.config().migrationCycles);

    if (waiting.empty() && running.size() == 1 &&
        soc.freeTiles() > 0) {
        // Expand a lone job when the remaining work amortizes the
        // migration penalty.
        const int id = running.front();
        if (soc.jobStallUntil(id) > soc.now())
            return;
        const double remain = cm_.model()
            .estimateRemaining(*soc.job(id).spec.model,
                               soc.jobLayer(id), soc.jobTiles(id))
            .prediction;
        if (remain > cfg_.repartitionBenefit * migration) {
            soc.resizeJob(id, soc.jobTiles(id) + soc.freeTiles());
            stats_.repartitions++;
            reconfigure(soc, id);
        }
        return;
    }

    if (event == sim::SchedEvent::JobArrival && !waiting.empty() &&
        soc.freeTiles() < per_slot) {
        // Shrink an expanded job back to one slot so new arrivals can
        // be admitted, when it still has enough work left to justify
        // paying the migration.
        for (int id : running) {
            if (soc.jobTiles(id) <= per_slot)
                continue;
            const double remain = cm_.model()
                .estimateRemaining(*soc.job(id).spec.model,
                                   soc.jobLayer(id), soc.jobTiles(id))
                .prediction;
            if (remain > cfg_.repartitionBenefit * migration) {
                soc.resizeJob(id, per_slot);
                stats_.repartitions++;
                reconfigure(soc, id);
                break;
            }
        }
    }
}

void
MocaPolicy::schedule(sim::Soc &soc, sim::SchedEvent event)
{
    maybeRepartition(soc, event);
    admitJobs(soc);

    // Fallback: if nothing could be admitted at slot granularity but
    // the machine is otherwise idle, run the best waiting job on
    // whatever tiles remain (avoids idling a nearly-free SoC).
    if (soc.runningJobs().empty() && !soc.waitingJobs().empty() &&
        soc.freeTiles() > 0) {
        // startJob invalidates the waitingJobs() view: grab the id
        // before mutating.
        const int id = soc.waitingJobs().front();
        soc.startJob(id,
                     std::min(soc.freeTiles(), tilesPerSlot(soc)));
        reconfigure(soc, id);
    }
    if (!tickCanAct(soc))
        soc.quietTicks();
}

bool
MocaPolicy::tickCanAct(const sim::Soc &soc) const
{
    // Every branch of schedule() that can act on a PeriodicTick; the
    // shrink branch runs only on JobArrival.
    const std::size_t waiting = soc.waitingCount();
    const std::size_t running = soc.runningCount();
    const int free = soc.freeTiles();
    // Admission (admitJobs) needs a waiting job and a free slot.
    if (waiting > 0 && free >= tilesPerSlot(soc))
        return true;
    // The idle-machine fallback start.
    if (running == 0 && waiting > 0 && free > 0)
        return true;
    // Lone-job expansion: its remaining estimate is a suffix sum over
    // layers, so once at or below the threshold it stays there until
    // a control call or completion clears the declaration.
    if (!cfg_.enableComputeRepartition || waiting > 0 || running != 1 ||
        free == 0)
        return false;
    const int id = soc.runningJobs().front();
    if (soc.jobStallUntil(id) > soc.now())
        return true;
    const double remain = cm_.model()
        .estimateRemaining(*soc.job(id).spec.model, soc.jobLayer(id),
                           soc.jobTiles(id))
        .prediction;
    return remain > cfg_.repartitionBenefit *
        static_cast<double>(soc.config().migrationCycles);
}

void
MocaPolicy::onBlockBoundary(sim::Soc &soc, int id)
{
    if (reconfigure(soc, id))
        reconfigureCorunners(soc, id);
}

void
MocaPolicy::onJobComplete(sim::Soc &, int id)
{
    cm_.onJobComplete(id);
}

} // namespace moca
