#include "cluster/parallel.h"

#include <algorithm>

#include "common/log.h"
#include "common/walltime.h"

namespace moca::cluster {

ParallelEngine::ParallelEngine(std::vector<sim::Soc *> socs, int jobs)
    : socs_(std::move(socs))
{
    if (jobs < 1)
        fatal("cluster jobs must be >= 1 (got %d); 0 workers cannot "
              "advance a fleet", jobs);
    if (socs_.empty())
        fatal("parallel engine needs at least one SoC");
    for (std::size_t i = 0; i < socs_.size(); ++i)
        if (socs_[i] == nullptr)
            fatal("parallel engine: SoC %zu is null", i);
    active_.assign(socs_.size(), 1);

    // Contiguous, near-equal shards: SoC i belongs to one shard for
    // the whole run, so every SoC is only ever touched by one worker
    // and the shard layout is a pure function of (fleet size, jobs).
    const std::size_t shards = std::min<std::size_t>(
        socs_.size(), static_cast<std::size_t>(jobs));
    const std::size_t base = socs_.size() / shards;
    const std::size_t rem = socs_.size() % shards;
    shards_.resize(shards);
    std::size_t at = 0;
    for (std::size_t s = 0; s < shards; ++s) {
        shards_[s].begin = at;
        at += base + (s < rem ? 1 : 0);
        shards_[s].end = at;
    }

    // One shard runs inline on the coordinator; only a genuinely
    // sharded fleet pays for threads.
    if (shards > 1) {
        workers_.reserve(shards);
        for (std::size_t s = 0; s < shards; ++s)
            workers_.emplace_back(
                [this, s]() { workerLoop(s); });
    }
}

ParallelEngine::~ParallelEngine()
{
    if (!workers_.empty()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            shutdown_ = true;
        }
        cv_work_.notify_all();
        for (std::thread &w : workers_)
            w.join();
    }
}

bool
ParallelEngine::behind(std::size_t i, Cycles horizon) const
{
    // advanceTo runs the kernel exactly when the SoC is unfinished and
    // behind the horizon; a parked SoC only once the horizon reaches
    // its planned step end.
    return active_[i] != 0 && socs_[i]->behind(horizon);
}

bool
ParallelEngine::wouldStep(Cycles horizon) const
{
    for (std::size_t i = 0; i < socs_.size(); ++i)
        if (behind(i, horizon))
            return true;
    return false;
}

Cycles
ParallelEngine::firstStepHorizon() const
{
    Cycles first = sim::kNoHorizon;
    for (std::size_t i = 0; i < socs_.size(); ++i)
        if (active_[i] != 0)
            first = std::min(first, socs_[i]->behindFrom());
    return first;
}

void
ParallelEngine::runShard(Shard &shard)
{
    WallTimer timer;
    shard.stepped = 0;
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
        if (stream_ != nullptr) {
            replaySoc(i, shard);
            continue;
        }
        // Recording the predicate (not a step count) keeps the stat
        // O(1).
        if (!behind(i, horizon_))
            continue;
        ++shard.stepped;
        socs_[i]->advanceTo(horizon_);
    }
    shard.advanceSec += timer.seconds();
}

void
ParallelEngine::replaySoc(std::size_t i, Shard &shard)
{
    sim::Soc &soc = *socs_[i];
    const std::vector<int> &mine = stream_->placements(i);
    const std::size_t drain = stream_->arrivals();
    std::size_t k = 0; // Next horizon to replay.
    for (std::size_t n = 0; n <= mine.size(); ++n) {
        // Horizons up to the next placement's arrival (inclusive: the
        // barrier path advances to an arrival before injecting it),
        // or up to the drain.  A done SoC is behind none of them.
        const std::size_t stop = n < mine.size()
            ? static_cast<std::size_t>(mine[n])
            : drain;
        for (; k <= stop && !soc.done(); ++k) {
            const Cycles h =
                k < drain ? stream_->arrival(k) : sim::kNoHorizon;
            if (behind(i, h)) {
                ++shard.behindAt[k];
                soc.advanceTo(h);
            }
        }
        k = stop + 1;
        if (n < mine.size())
            stream_->inject(i, n);
    }
}

void
ParallelEngine::workerLoop(std::size_t shard_idx)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            WallTimer wait_timer;
            std::unique_lock<std::mutex> lock(mu_);
            cv_work_.wait(lock, [&]() {
                return shutdown_ || generation_ != seen;
            });
            // Written under mu_ by the owning worker only; the
            // coordinator reads it between epochs (phaseTotals).
            shards_[shard_idx].waitSec += wait_timer.seconds();
            if (shutdown_)
                return;
            seen = generation_;
        }
        runShard(shards_[shard_idx]);
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++done_count_;
        }
        cv_done_.notify_one();
    }
}

void
ParallelEngine::advanceFleet(Cycles horizon)
{
    // No SoC is behind the horizon, so every per-SoC advance loop
    // would run zero iterations — skip the barrier round-trip
    // entirely.  This is the simultaneous-arrival / drained-fleet
    // case; it is a pure no-op skip, so serial and sharded runs count
    // it identically.
    if (!wouldStep(horizon)) {
        stats_.horizonStalls++;
        return;
    }

    stats_.epochs++;
    horizon_ = horizon;
    runEpoch();

    // Index-order reduction: no stat depends on worker completion
    // order.
    for (const Shard &shard : shards_)
        stats_.socsStepped += shard.stepped;
}

const std::vector<std::uint32_t> &
ParallelEngine::replay(StreamReplay &stream)
{
    for (std::size_t i = 0; i < socs_.size(); ++i)
        if (active_[i] == 0)
            panic("replay: slot %zu is inactive", i);
    // Sized here, so the workers allocate nothing for the counts.
    const std::size_t horizons = stream.arrivals() + 1;
    for (Shard &shard : shards_)
        shard.behindAt.assign(horizons, 0);
    stream_ = &stream;
    runEpoch();
    stream_ = nullptr;

    // Index-order reduction into shard 0's counts; each horizon is
    // then one logical epoch or one stall, as on the barrier path.
    std::vector<std::uint32_t> &behind = shards_[0].behindAt;
    for (std::size_t s = 1; s < shards_.size(); ++s)
        for (std::size_t k = 0; k < horizons; ++k)
            behind[k] += shards_[s].behindAt[k];
    for (const std::uint32_t n : behind) {
        if (n == 0) {
            stats_.horizonStalls++;
        } else {
            stats_.epochs++;
            stats_.socsStepped += n;
        }
    }
    return behind;
}

void
ParallelEngine::runEpoch()
{
    stats_.barriers++;
    if (workers_.empty()) {
        runShard(shards_[0]);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        done_count_ = 0;
        ++generation_;
    }
    cv_work_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock,
                  [&]() { return done_count_ == workers_.size(); });
}

void
ParallelEngine::phaseTotals(double &advance_sec,
                            double &wait_sec) const
{
    advance_sec = 0.0;
    wait_sec = 0.0;
    for (const Shard &shard : shards_) {
        advance_sec += shard.advanceSec;
        wait_sec += shard.waitSec;
    }
}

void
ParallelEngine::setActive(std::size_t soc_idx, bool active)
{
    if (soc_idx >= socs_.size())
        panic("setActive(%zu): fleet has %zu SoCs", soc_idx,
              socs_.size());
    active_[soc_idx] = active ? 1 : 0;
}

void
ParallelEngine::replaceSoc(std::size_t soc_idx, sim::Soc *soc)
{
    if (soc_idx >= socs_.size())
        panic("replaceSoc(%zu): fleet has %zu SoCs", soc_idx,
              socs_.size());
    if (soc == nullptr)
        fatal("replaceSoc(%zu): SoC is null", soc_idx);
    socs_[soc_idx] = soc;
}

} // namespace moca::cluster
