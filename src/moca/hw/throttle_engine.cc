#include "moca/hw/throttle_engine.h"

#include <algorithm>

namespace moca::hw {

void
ThrottleEngine::configure(const ThrottleConfig &cfg)
{
    cfg_ = cfg;
    window_pos_ = 0;
    window_count_ = 0;
    reconfig_stall_ = kReconfigCycles;
    stats_.reconfigurations++;
}

void
ThrottleEngine::rollWindowIfNeeded()
{
    if (!cfg_.enabled())
        return;
    while (window_pos_ >= cfg_.windowCycles) {
        window_pos_ -= cfg_.windowCycles;
        window_count_ = 0;
        stats_.windowsElapsed++;
    }
}

bool
ThrottleEngine::throttled() const
{
    if (reconfig_stall_ > 0)
        return true;
    if (!cfg_.enabled())
        return false;
    return window_count_ >= cfg_.thresholdLoad;
}

Cycles
ThrottleEngine::cyclesUntilWindowEnd() const
{
    if (!cfg_.enabled())
        return 0;
    return cfg_.windowCycles - window_pos_;
}

Cycles
ThrottleEngine::cyclesUntilNextChange() const
{
    if (reconfig_stall_ > 0)
        return reconfig_stall_;
    return cyclesUntilWindowEnd();
}

bool
ThrottleEngine::step(bool wants_issue)
{
    bool granted = false;
    if (reconfig_stall_ > 0) {
        reconfig_stall_--;
        if (wants_issue)
            stats_.bubblesInserted++;
    } else if (!wants_issue) {
        // Nothing pending; window time still elapses.
    } else if (!cfg_.enabled() || window_count_ < cfg_.thresholdLoad) {
        window_count_++;
        stats_.accessesGranted++;
        granted = true;
    } else {
        // Threshold exceeded: insert a bubble (stall memory issue
        // until the runtime updates us or the window rolls over).
        stats_.bubblesInserted++;
    }

    if (cfg_.enabled()) {
        window_pos_++;
        rollWindowIfNeeded();
    }
    return granted;
}

std::uint64_t
ThrottleEngine::advanceGated(Cycles cycles, std::uint64_t max_requests)
{
    std::uint64_t granted = 0;

    // Burn reconfiguration dead time first.
    const Cycles dead = std::min<Cycles>(reconfig_stall_, cycles);
    reconfig_stall_ -= dead;
    cycles -= dead;
    if (max_requests > 0)
        stats_.bubblesInserted += dead;
    if (cfg_.enabled()) {
        window_pos_ += dead;
        rollWindowIfNeeded();
    }

    if (!cfg_.enabled()) {
        // Unthrottled: one access per cycle up to demand.
        granted = std::min<std::uint64_t>(cycles, max_requests);
        stats_.accessesGranted += granted;
        return granted;
    }

    while (cycles > 0 && granted < max_requests) {
        const Cycles to_window_end = cfg_.windowCycles - window_pos_;
        const Cycles span = std::min<Cycles>(cycles, to_window_end);

        const std::uint64_t window_budget =
            window_count_ >= cfg_.thresholdLoad
                ? 0
                : cfg_.thresholdLoad - window_count_;
        const std::uint64_t want = max_requests - granted;
        const std::uint64_t grant_now =
            std::min<std::uint64_t>({span, window_budget, want});

        granted += grant_now;
        window_count_ += grant_now;
        stats_.accessesGranted += grant_now;

        // Remaining cycles in this span are bubbles if demand remains.
        if (grant_now < span && granted < max_requests)
            stats_.bubblesInserted += span - grant_now;

        window_pos_ += span;
        cycles -= span;
        rollWindowIfNeeded();
    }

    // Demand satisfied; let remaining cycles elapse without issue.
    if (cycles > 0 && cfg_.enabled()) {
        window_pos_ += cycles;
        rollWindowIfNeeded();
    }
    return granted;
}

std::uint64_t
ThrottleEngine::peekGated(Cycles cycles) const
{
    const Cycles dead = std::min<Cycles>(reconfig_stall_, cycles);
    Cycles left = cycles - dead;

    if (!cfg_.enabled())
        return left;

    Cycles pos = window_pos_ + dead;
    std::uint64_t count = window_count_;
    while (pos >= cfg_.windowCycles) {
        pos -= cfg_.windowCycles;
        count = 0;
    }

    std::uint64_t allowance = 0;
    while (left > 0) {
        const Cycles span =
            std::min<Cycles>(left, cfg_.windowCycles - pos);
        const std::uint64_t budget =
            count >= cfg_.thresholdLoad ? 0 : cfg_.thresholdLoad - count;
        allowance += std::min<std::uint64_t>(span, budget);
        left -= span;
        pos += span;
        if (pos >= cfg_.windowCycles) {
            pos = 0;
            count = 0;
        } else {
            count += std::min<std::uint64_t>(span, budget);
        }
    }
    return allowance;
}

void
ThrottleEngine::reset()
{
    window_pos_ = 0;
    window_count_ = 0;
    reconfig_stall_ = 0;
    stats_ = ThrottleStats();
}

} // namespace moca::hw
