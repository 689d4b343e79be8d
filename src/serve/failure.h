/**
 * @file
 * Seeded failure injection for the serving subsystem: SoCs fail
 * mid-run at exponentially-distributed fleet-wide intervals, stay
 * down for an exponentially-distributed downtime, and come back as a
 * *fresh* SoC (a machine reboot loses its queue).  What happens to
 * the in-flight work is the configurable part: `requeue` re-places
 * each lost attempt through admission+dispatch without touching the
 * client's timeout-retry budget (the request did not time out, the
 * machine died) — but re-placements have their own budget (the same
 * maxRetries knob), since an unbounded requeue of a job longer than
 * the fleet's typical failure gap is a forever retry storm; `drop`
 * loses the attempts and lets the owning clients discover it via
 * their timeout.
 *
 * The injector is the decision logic only — victim choice, downtime,
 * and the next failure time — consuming one seeded stream dedicated
 * to failures, so failure schedules are reproducible and independent
 * of the request stream.  The serve driver owns the mechanics
 * (freezing the slot in the ParallelEngine, swapping in the fresh
 * SoC at recovery).
 */

#ifndef MOCA_SERVE_FAILURE_H
#define MOCA_SERVE_FAILURE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace moca::serve {

/** Fate of the attempts in flight on a failed SoC. */
enum class InflightPolicy
{
    Requeue, ///< Re-place each lost attempt (free retry).
    Drop,    ///< Lose them; clients find out via their timeouts.
};

/** Printable policy name ("requeue", "drop"). */
const char *inflightPolicyName(InflightPolicy policy);

/** Parse a policy name; fatal (listing the options) when unknown. */
InflightPolicy inflightPolicyFromName(const std::string &name);

/** Failure-injection parameters. */
struct FailureConfig
{
    /** Expected fleet-wide failures per Gcycle; 0 disables. */
    double rate = 0.0;

    /** Mean downtime in cycles (exponential). */
    double meanDowntime = 2e6;

    InflightPolicy inflight = InflightPolicy::Requeue;

    std::uint64_t seed = 7;
};

/**
 * The seeded failure schedule.  Draw order is fixed — next-gap at
 * construction, then (victim, downtime, next-gap) per failure — so
 * the schedule is a pure function of (config, the deterministic
 * up-set history it is asked about).
 */
class FailureInjector
{
  public:
    explicit FailureInjector(const FailureConfig &cfg);

    bool enabled() const { return cfg_.rate > 0.0; }

    /** Cycle of the first failure (drawn at construction). */
    Cycles firstFailure() const { return firstFailure_; }

    /** Outcome of one failure event. */
    struct FailPlan
    {
        int victim = -1;      ///< Index into `candidates`, or -1
                              ///< when the last-SoC guard vetoed.
        Cycles recoverAt = 0; ///< Recovery cycle (victim >= 0 only).
        Cycles nextFailAt = 0; ///< Next failure event cycle.
    };

    /**
     * Decide the failure firing at `now`: pick a victim uniformly
     * from `num_candidates` eligible (non-Down) slots — vetoed when
     * it is the last one, since a fully-dark fleet serves nothing —
     * and draw the downtime and the next failure gap.  Consumes RNG
     * draws only for the parts that happen, in a fixed order.
     */
    FailPlan plan(Cycles now, int num_candidates);

  private:
    FailureConfig cfg_;
    Rng rng_;
    Cycles firstFailure_ = 0;

    Cycles drawGap();
};

} // namespace moca::serve

#endif // MOCA_SERVE_FAILURE_H
