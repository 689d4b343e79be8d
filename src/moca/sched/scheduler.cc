#include "moca/sched/scheduler.h"

#include <algorithm>
#include <iterator>

#include "common/log.h"

namespace moca::sched {

double
MocaScheduler::score(const SchedTask &task, Cycles now)
{
    const double waiting = now >= task.dispatched
        ? static_cast<double>(now - task.dispatched) : 0.0;
    const double est = std::max(1.0, task.estimatedTime);
    return static_cast<double>(task.priority) + waiting / est;
}

bool
MocaScheduler::isMemIntensive(const SchedTask &task) const
{
    return sched::isMemIntensive(task.estimatedAvgBw, dram_bw_);
}

void
MocaScheduler::beginRound() const
{
    mem_top_.clear();
    cpu_top_.clear();
    ex_.clear();
}

void
MocaScheduler::considerTask(const SchedTask &t, Cycles now,
                            std::size_t cap) const
{
    const double s = score(t, now);
    // ">=" so that freshly dispatched priority-0 tasks (score
    // exactly 0) pass the default threshold of 0 (line 14).
    if (s < cfg_.scoreThreshold)
        return;
    std::vector<Scored> &top = isMemIntensive(t) ? mem_top_ : cpu_top_;
    const Scored cand{t, s};
    if (top.size() == cap && !better(cand, top.back()))
        return;
    top.push_back(cand);
    for (std::size_t i = top.size() - 1;
         i > 0 && better(top[i], top[i - 1]); --i)
        std::swap(top[i], top[i - 1]);
    if (top.size() > cap)
        top.pop_back();
}

void
MocaScheduler::formGroup(int max_slots, MixBias bias,
                         std::vector<int> &group) const
{
    // Merge the two class lists into the (truncated) ExQueue in
    // descending-score order — identical order to the full sort,
    // restricted to the candidates the formation loop can reach.
    std::vector<Scored> &ex = ex_;
    std::merge(mem_top_.begin(), mem_top_.end(),
               cpu_top_.begin(), cpu_top_.end(),
               std::back_inserter(ex), better);

    // Lines 17-25: form the co-running group; pair memory-intensive
    // picks with the next non-memory-intensive task in the queue.
    auto pop_first = [&](auto &&pred) -> const SchedTask * {
        for (auto &s : ex) {
            if (!s.taken && pred(s.task)) {
                s.taken = true;
                return &s.task;
            }
        }
        return nullptr;
    };

    bool first_pick = true;
    while (static_cast<int>(group.size()) < max_slots) {
        const SchedTask *curr = nullptr;
        if (first_pick && cfg_.memAwarePairing &&
            bias != MixBias::None) {
            // Rebalance against the running mix: prefer the
            // highest-scored task of the under-represented kind.
            const bool want_mem = bias == MixBias::PreferMem;
            curr = pop_first([&](const SchedTask &t) {
                return isMemIntensive(t) == want_mem;
            });
        }
        first_pick = false;
        if (curr == nullptr)
            curr = pop_first([](const SchedTask &) { return true; });
        if (curr == nullptr)
            break;
        group.push_back(curr->id);

        if (cfg_.memAwarePairing && isMemIntensive(*curr) &&
            static_cast<int>(group.size()) < max_slots) {
            const SchedTask *co = pop_first(
                [&](const SchedTask &t) { return !isMemIntensive(t); });
            if (co != nullptr)
                group.push_back(co->id);
        }
    }
}

std::vector<int>
MocaScheduler::selectGroup(const std::vector<SchedTask> &queue,
                           Cycles now, int max_slots,
                           MixBias bias) const
{
    std::vector<int> group;
    if (max_slots <= 0 || queue.empty())
        return group;
    beginRound();
    for (const auto &t : queue)
        considerTask(t, now, static_cast<std::size_t>(max_slots));
    formGroup(max_slots, bias, group);
    return group;
}

} // namespace moca::sched
